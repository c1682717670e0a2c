import json
import re
from fractions import Fraction

from otnplan.modes import SurvivabilityMode
from otnplan.planner import PlanOptions, plan
from otnplan.report import emit_report, fmt_cost, fmt_traffic, relative_difference

EXACT = PlanOptions(gap=0.0, time_limit=120)


class TestFormatting:
    def test_costs_zero_decimals_half_up(self):
        assert fmt_cost(Fraction("1471.2")) == "1471"
        assert fmt_cost(Fraction("1985.2")) == "1985"
        assert fmt_cost(Fraction("10.5")) == "11"

    def test_traffic_one_decimal(self):
        assert fmt_traffic(Fraction("262.5")) == "262.5"
        assert fmt_traffic(Fraction(100)) == "100.0"

    def test_relative_difference_examples(self):
        assert relative_difference(3628, 3395) == "+6.9%"
        assert relative_difference(1471, 1537) == "-4.3%"


class TestEmitReport:
    def _configs(self, ring4_factory):
        return [
            ("single-layer", plan(ring4_factory(SurvivabilityMode.SINGLE_LAYER), EXACT)),
            ("interlayer-brs", plan(ring4_factory(SurvivabilityMode.ML_INTERLAYER_BRS), EXACT)),
        ]

    def test_row_shape(self, ring4_factory):
        text = emit_report(self._configs(ring4_factory))
        assert "Transit traffic (Gbps)" in text
        assert "2 (1)" in text      # lightpaths (protection-carrying)
        assert "4 (0)" in text      # BRS wavelengths (extra)
        assert "Total cost" in text

    def test_formats_contain_identical_numbers(self, ring4_factory):
        configs = self._configs(ring4_factory)
        table = emit_report(configs, fmt="table")
        csv = emit_report(configs, fmt="csv")
        payload = json.loads(emit_report(configs, fmt="json"))
        numbers_csv = set(re.findall(r'"([^"]+)"', csv))
        for row_values in payload["rows"].values():
            for value in row_values:
                assert value in numbers_csv
                assert value in table

    def test_diff_row(self, ring4_factory):
        configs = self._configs(ring4_factory)
        text = emit_report(configs, fmt="table", diff_base="single-layer")
        assert "Cost vs single-layer" in text
        assert "+0.0%" in text  # the base column compared with itself

    def test_deterministic(self, ring4_factory):
        configs = self._configs(ring4_factory)
        assert emit_report(configs) == emit_report(configs)
