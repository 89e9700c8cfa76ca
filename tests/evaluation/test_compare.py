"""Unit tests for the comparison harness and table rendering."""

import pytest

from repro.evaluation import format_comparison_table, run_comparison
from repro.model import evaluate_plan
from repro.runtime import PlanJob, PlannerSpec, execute_job
from repro.workloads import generate_1d_instance


@pytest.fixture
def small_comparison(small_1d_instance, small_mcc_instance):
    return run_comparison(
        [small_1d_instance, small_mcc_instance],
        {"greedy": "greedy-1d", "e-blow": "eblow-1d"},
    )


class TestExecuteJobCondensesPlan:
    def test_fields(self, small_1d_instance):
        job = PlanJob(spec=PlannerSpec("greedy-1d"), instance=small_1d_instance)
        result = execute_job(job)
        assert result.label == "greedy-1d"
        assert result.case == small_1d_instance.name
        plan = result.plan_object(small_1d_instance)
        report = evaluate_plan(plan)
        assert result.writing_time == report.total == plan.stats["writing_time"]
        assert result.num_selected == report.num_selected == plan.num_selected


class TestRunComparison:
    def test_rows_and_algorithms(self, small_comparison):
        assert len(small_comparison.rows) == 2
        assert small_comparison.algorithms() == ["greedy", "e-blow"]
        for row in small_comparison.rows:
            assert set(row.results) == {"greedy", "e-blow"}

    def test_averages_and_ratios(self, small_comparison):
        averages = small_comparison.averages()
        assert set(averages) == {"greedy", "e-blow"}
        ratios = small_comparison.ratios("e-blow")
        assert ratios["e-blow"]["writing_time"] == pytest.approx(1.0)
        # Greedy should not be better than E-BLOW on average.
        assert ratios["greedy"]["writing_time"] >= 0.98

    def test_ratios_with_unknown_reference(self, small_comparison):
        assert small_comparison.ratios("nope") == {}

    def test_accepts_case_names(self):
        comparison = run_comparison(["1T-1"], {"greedy": "greedy-1d"}, scale=1.0)
        assert comparison.rows[0].case == "1T-1"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_instances_that_share_a_name_are_two_rows(self, jobs):
        small = generate_1d_instance(num_characters=20, num_regions=2, seed=1, name="same")
        large = generate_1d_instance(num_characters=25, num_regions=2, seed=2, name="same")
        comparison = run_comparison([small, large], {"g": "greedy-1d"}, jobs=jobs)
        assert [row.instance_summary["num_characters"] for row in comparison.rows] == [20, 25]
        assert [row.results["g"].instance_summary for row in comparison.rows] == [
            row.instance_summary for row in comparison.rows
        ]

    def test_to_dict_round_trips_json(self, small_comparison):
        import json

        text = json.dumps(small_comparison.to_dict(), default=str)
        data = json.loads(text)
        assert len(data["rows"]) == 2

    def test_to_dict_writes_the_six_result_keys(self, small_comparison):
        for row, data in zip(small_comparison.rows, small_comparison.to_dict()["rows"]):
            for name, record in data["results"].items():
                result = row.results[name]
                assert record == {
                    "algorithm": name,
                    "case": row.case,
                    "writing_time": result.writing_time,
                    "num_selected": result.num_selected,
                    "runtime_seconds": result.runtime_seconds,
                    "extra": result.extra,
                }


class TestFormatting:
    def test_table_contains_all_cases_and_algorithms(self, small_comparison):
        table = format_comparison_table(small_comparison, reference="e-blow")
        assert "test-1d-small" in table
        assert "test-1d-mcc" in table
        assert "greedy:T" in table
        assert "Avg." in table
        assert "Ratio" in table

    def test_table_without_reference(self, small_comparison):
        table = format_comparison_table(small_comparison)
        assert "Ratio" not in table
