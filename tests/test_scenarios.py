"""Scenario engine: overrides, reporting rows, and the embedded suite."""

import dataclasses
import math
import re

import pytest

from openecon import (ClosureSpec, DomainError, Scenario, apply_scenario,
                      paper_suite, report_row, run_suite, solve_at_rate)
from openecon import closure, model, reference
from openecon.model import ModelInstance, canonical_parameter
from openecon.scenarios import (REFERENCE_TOLERANCE, ScenarioResult,
                                 _sign_checks, row_deviation)


# instance-file spelling -> canonical parameter path
SPELLINGS = {
    "alpha": "alpha", "gamma": "gamma", "delta": "delta", "theta": "theta",
    "rho": "rho", "phi": "phi", "A0": "a0", "A1": "a1", "N0": "n0",
    "N1": "n1", "K0": "k0", "tax0": "t0", "G0": "g0", "G1": "g1",
    "l0_max": "l0_max", "l1_max": "l1_max",
    "years_per_period": "years_per_period",
}

FIELDS = [f.name for f in dataclasses.fields(ModelInstance)]


class TestApplyScenario:
    def test_perturb_gamma(self, baseline):
        s = Scenario("g", rate=0.4821, perturbations={"gamma": 1.15})
        out = apply_scenario(baseline, s)
        assert out.gamma == pytest.approx(1.38, rel=1e-12)

    def test_perturb_rho(self, baseline):
        s = Scenario("p", rate=0.5, perturbations={"rho": 1.15})
        out = apply_scenario(baseline, s)
        assert out.rho == pytest.approx(0.575, rel=1e-12)

    def test_empty_scenario_identical(self, baseline):
        out = apply_scenario(baseline, Scenario("b", rate=0.4821))
        assert out == baseline

    def test_base_untouched(self, baseline):
        gamma_before = baseline.gamma
        apply_scenario(baseline, Scenario("g", rate=0.5,
                                          overrides={"gamma": 2.0}))
        assert baseline.gamma == gamma_before

    def test_override_then_perturb_disjoint_only(self):
        with pytest.raises(ValueError):
            Scenario("bad", rate=0.5, overrides={"gamma": 2.0},
                     perturbations={"gamma": 1.1})

    @pytest.mark.parametrize("where", ["overrides", "perturbations"])
    @pytest.mark.parametrize("name", ["A1", "K0", "tax0", " k0 ", "RHO",
                                      "sigma"])
    def test_parameters_are_named_by_field(self, where, name):
        """A name that is not a field, such as a file spelling, is refused
        by name; scenario files resolve spellings before they build a
        Scenario.  All 17 fields are accepted."""
        with pytest.raises(ValueError, match=re.escape(
                f"scenario 'x' has an unknown parameter {name!r}")):
            Scenario("x", rate=0.5, **{where: {"gamma": 1.1, name: 1.1}})
        assert len(FIELDS) == 17
        s = Scenario("x", rate=0.5, **{where: dict.fromkeys(FIELDS, 1.1)})
        assert list(getattr(s, where)) == FIELDS

    @pytest.mark.parametrize("edit", [
        lambda over, pert, ref: pert.update(rho=1.2),
        lambda over, pert, ref: over.update(alpha=0.4),
        lambda over, pert, ref: ref.update(Y0=1.0),
    ], ids=["perturbation factor", "alpha override", "Y0 reference row"])
    def test_dicts_are_copies(self, baseline, edit):
        """Editing a caller's dict after the build changes neither the
        scenario nor what run_suite makes of it."""
        over, pert, ref = {}, {"rho": 1.15}, dict(reference.REFERENCE_TABLE[
            "higher_rho"])
        s = Scenario("higher_rho", rate=0.556, overrides=over,
                     perturbations=pert, reference=ref)
        suite = [Scenario("baseline", rate=0.4821), s]
        before = run_suite(baseline, suite)
        edit(over, pert, ref)
        after = run_suite(baseline, suite)
        assert after == before
        assert after.passed and len(after.sign_checks) == 1
        assert s == Scenario("higher_rho", rate=0.556,
                             perturbations={"rho": 1.15},
                             reference=reference.REFERENCE_TABLE["higher_rho"])

    @pytest.mark.parametrize("where, key, value", [
        ("reference", "Y0", 1.0), ("reference", "y0", 1.0),
        ("perturbations", "sigma", 2.0), ("perturbations", "rho", 1.3),
        ("overrides", "alpha", 0.4),
    ])
    def test_dicts_are_read_only(self, baseline, where, key, value):
        """The scenario's own mappings refuse edits, so no edit after the
        checks can make run_suite raise, or solve what was not checked."""
        s = Scenario("higher_rho", rate=0.556, perturbations={"rho": 1.15},
                     reference=reference.REFERENCE_TABLE["higher_rho"])
        with pytest.raises(TypeError):
            getattr(s, where)[key] = value
        assert run_suite(baseline, [Scenario("baseline", rate=0.4821), s]).passed
        renamed = dataclasses.replace(s, name="again")
        assert (renamed.name, renamed.perturbations, renamed.reference) == (
            "again", {"rho": 1.15}, reference.REFERENCE_TABLE["higher_rho"])

    def test_needs_rate_or_closure(self):
        with pytest.raises(ValueError):
            Scenario("bad")
        Scenario("ok", closure=ClosureSpec("balanced_trade"))

    def test_rate_and_closure_are_exclusive(self):
        with pytest.raises(ValueError, match="has both a rate and a closure"):
            Scenario("bad", rate=0.5, closure=ClosureSpec("balanced_trade"))

    @pytest.mark.parametrize("key", ["Y0", "welfare", "w0/r"])
    def test_unknown_reference_row_is_named(self, key):
        with pytest.raises(ValueError, match=f"unknown reference row '{key}'"):
            Scenario("x", rate=0.5, reference={"y0": 1.0, key: 1.0})
        Scenario("x", rate=0.5, reference=dict.fromkeys(reference.ROW_KEYS, 1.0))

    def test_aliases(self):
        for spelling, path in SPELLINGS.items():
            for name in (spelling, path):
                for form in (name, name.upper(), f"  {name}\t "):
                    assert canonical_parameter(form) == path, form
        for name in ("tax", "t1", "A 1", "alpha0", ""):
            with pytest.raises(KeyError):
                canonical_parameter(name)


class TestReportRow:
    def test_ratio_rows(self, baseline, baseline_eq):
        rows = report_row(baseline_eq, baseline)
        assert rows["wage_ratio"] == pytest.approx(1.4459, rel=2e-3)
        assert rows["i0_y0"] == pytest.approx(0.3472, abs=2e-3)
        assert rows["w0_r"] == pytest.approx(0.3413, abs=2e-3)

    def test_annualized_rate(self, baseline, baseline_eq):
        rows = report_row(baseline_eq, baseline)
        assert rows["r_year"] == pytest.approx((1.4821) ** (1 / 16) - 1,
                                               rel=1e-12)

    def test_zero_rate_has_no_w0_r_row(self, baseline):
        with pytest.raises(DomainError, match=r"^row w0/r is undefined at r=0.0$"):
            report_row(solve_at_rate(baseline, 0.0), baseline)

    def test_underflowed_discounted_future_wage(self, baseline):
        """w1 = 5e-324 at r = 1, so w1/(1+r) rounds to 0."""
        tiny = model.with_parameters(baseline, {"a1": 4.4e-323})
        eq = solve_at_rate(tiny, 1.0)
        assert eq.w1 == 5e-324 and eq.w1 / 2.0 == 0.0
        with pytest.raises(DomainError, match=r"^row w0/\(w1/\(1\+r\)\) is "
                                              r"not finite at r=1.0$"):
            report_row(eq, tiny)
        report = run_suite(tiny, [Scenario("one", rate=1.0)])
        assert report.results[0].error == ("row w0/(w1/(1+r)) is not finite "
                                           "at r=1.0")

    def test_row_deviation_modes(self):
        assert row_deviation(0.35, 0.34) == pytest.approx(0.01)
        assert row_deviation(101.0, 100.0) == pytest.approx(0.01)


class TestSuite:
    def test_paper_suite_reproduces_references(self, baseline):
        report = run_suite(baseline, paper_suite())
        for result in report.results:
            assert result.passed, (result.name, result.failed_rows,
                                   result.deviations, result.error)
        assert report.passed

    def test_sign_checks_present_and_green(self, baseline):
        report = run_suite(baseline, paper_suite())
        assert len(report.sign_checks) == 4
        for check in report.sign_checks:
            assert check.passed, (check.name, check.detail)

    def test_bad_scenario_does_not_abort(self, baseline):
        scenarios = paper_suite()[:1] + [
            Scenario("broken", rate=0.5, overrides={"alpha": 2.0})]
        report = run_suite(baseline, scenarios)
        assert len(report.results) == 2
        assert report.results[0].passed
        assert report.results[1].error == "alpha must lie in (0, 1)"
        assert not report.passed

    def test_underflowed_present_output_fails_each_scenario(self, baseline):
        tiny = model.with_parameters(baseline, {"k0": 1e-250, "a0": 1e-250,
                                                "l0_max": 1e-100})
        report = run_suite(tiny, paper_suite())
        assert [r.error for r in report.results] == [
            f"present output must be positive; it is 0.0 at r={s.rate}"
            for s in paper_suite()]
        assert report.sign_checks == [] and not report.passed

    def test_two_bad_values_name_the_first_checked(self, baseline):
        """Checks run in the instance's field order, gamma before alpha,
        whatever order the scenario gives the perturbations in."""
        s = Scenario("x", rate=0.5, perturbations={"alpha": 3.0, "gamma": -1.0})
        (result,) = run_suite(baseline, [s]).results
        assert result.error == "gamma, theta, rho, phi must all be positive"

    def test_convergence_failure_does_not_abort(self, baseline, monkeypatch):
        monkeypatch.setattr(closure, "MAX_ITERATIONS", 1)
        slow = Scenario("slow", closure=ClosureSpec("balanced_trade"))
        report = run_suite(baseline, [slow] + paper_suite()[:1])
        assert len(report.results) == 2
        assert "no convergence" in report.results[0].error
        assert report.results[1].passed
        assert not report.passed

    def test_failed_closure_has_no_rate(self, baseline):
        s = Scenario("bad", closure=ClosureSpec("balanced_trade",
                                                bracket=(0.01, 0.02)))
        (result,) = run_suite(baseline, [s]).results
        assert result.rate is None
        assert result.error.startswith("objective has the same sign")
        assert result.rows == {} and not result.passed

    def test_closure_driven_scenario(self, baseline):
        s = Scenario("bt", closure=ClosureSpec("balanced_trade",
                                               bracket=(0.4821, 2.0)))
        report = run_suite(baseline, [s])
        result = report.results[0]
        assert result.error is None
        assert result.rate == pytest.approx(0.748304, abs=1e-4)
        assert abs(result.rows["tb0"]) <= 1e-6 * result.rows["y0"]

    def test_sign_checks_read_only_raised_parameters(self, baseline):
        """Each check states what a higher value does, so a scenario that
        lowers its parameter is not checked against it."""
        scenarios = [Scenario("base", rate=0.4821),
                     Scenario("lower_rho", rate=0.45, perturbations={"rho": 0.8}),
                     Scenario("higher_a1", rate=0.4979,
                              perturbations={"a1": 1.15})]
        report = run_suite(baseline, scenarios)
        assert [c.name.split(":")[0] for c in report.sign_checks] == ["higher a1"]
        assert report.passed

    def test_reference_mismatch_is_collected(self, baseline):
        s = Scenario("off", rate=0.4821, reference={"y0": 1.0})
        report = run_suite(baseline, [s])
        assert report.results[0].failed_rows == ["y0"]
        assert not report.passed

    @pytest.mark.parametrize("scenario", [
        Scenario("off", rate=0.4821, reference={"y0": 1.0}),
        Scenario("empty", rate=0.4821, reference={}),
        Scenario("bad", rate=0.4821, reference={"y0": 1.0},
                 overrides={"alpha": 0.5}, perturbations={"gamma": -1.0}),
    ], ids=["solved", "empty reference", "failed"])
    def test_result_reference_is_its_own_copy(self, baseline, scenario):
        """Editing a result's reference leaves its scenario as it was, so
        the same suite runs again with the same results.  It is a plain
        dict, not the scenario's read-only view."""
        (first,) = run_suite(baseline, [scenario]).results
        assert type(first.reference) is dict
        first.reference["Y0"] = 1.0
        assert "Y0" not in scenario.reference
        (again,) = run_suite(baseline, [scenario]).results
        assert again.reference == {key: value for key, value in
                                   first.reference.items() if key != "Y0"}
        assert (again.rows, again.error) == (first.rows, first.error)

    @pytest.mark.parametrize("miss, passed", [(0.9 * REFERENCE_TOLERANCE, True),
                                              (1.1 * REFERENCE_TOLERANCE, False)])
    def test_reference_row_passes_within_the_tolerance(self, baseline, miss,
                                                        passed):
        (plain,) = run_suite(baseline, [Scenario("x", rate=0.4821)]).results
        s = Scenario("x", rate=0.4821,
                     reference={"y0": plain.rows["y0"] / (1.0 - miss)})
        (result,) = run_suite(baseline, [s]).results
        assert result.deviations["y0"] == pytest.approx(miss, rel=1e-9)
        assert result.passed is passed

    def test_reference_tolerance_is_a_constant(self):
        assert REFERENCE_TOLERANCE == 2e-3
        assert [s.reference for s in paper_suite()] == [
            reference.REFERENCE_TABLE[s.name] for s in paper_suite()]
        with pytest.raises(TypeError):
            paper_suite(2e-3)


# parameter raised -> the direction labels its sign check states, in order
DIRECTIONS = {
    "gamma": ["i0 unchanged", "|dtb0| < 0.5% of y0"],
    "theta": ["r up", "w0 down", "y0 up", "l0 up"],
    "rho": ["r up", "l0 up", "y0 up", "i0 down", "C0 down", "deficit down"],
    "a1": ["r up", "i0 up", "C0 up", "w0 up", "w1 up", "l0 down", "y0 down",
           "deficit up"],
}


def _violate(rows, base, label):
    """Move the one row of `rows` that `label` reads so that it fails."""
    if label == "|dtb0| < 0.5% of y0":
        rows["tb0"] = base["tb0"] + 0.01 * base["y0"]
    elif label.endswith(" unchanged"):
        key = label.split()[0]
        rows[key] = base[key] * 1.01
    else:                        # a strict "up" or "down" fails at equality
        key = label.split()[0]
        key = "tb0" if key == "deficit" else key
        rows[key] = base[key]


class TestSignCheckDirections:
    @pytest.mark.parametrize("param, label", [
        (param, label) for param, labels in DIRECTIONS.items()
        for label in labels])
    def test_one_moved_row_fails_only_its_direction(self, baseline, param,
                                                    label):
        """Each direction is checked on its own: with only the row it reads
        moved, its check names it alone and every other check passes."""
        report = run_suite(baseline, paper_suite())
        by_param = {
            suite_param: ScenarioResult(result.name, result.rate,
                                        dict(result.rows), None)
            for (_, suite_param, _), result in zip(reference.SUITE_DESIGN,
                                                   report.results)}
        _violate(by_param[param].rows, by_param[None].rows, label)
        checks = _sign_checks(by_param)
        assert len(checks) == len(DIRECTIONS)
        for check, checked in zip(checks, DIRECTIONS):
            if checked == param:
                assert not check.passed
                assert check.detail == f"violated: {label}"
            else:
                assert check.passed and check.detail == "all directions hold"
