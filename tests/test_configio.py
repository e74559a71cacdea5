"""Instance/scenario file parsing and deterministic serialization."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openecon import DomainError, ModelInstance, solve_at_rate
from openecon.configio import (ParseError, csv_number, json_number,
                               parse_instance, parse_scenarios, to_csv,
                               to_json)
from openecon.model import PARAMETERS
from openecon.scenarios import Scenario


BASELINE_TEXT = """\
alpha = 0.5
gamma = 1.2
delta = 1.0
theta = 9.0
rho = 0.5
phi = 1.0
A0 = 1.0
A1 = 1.0
N0 = 10.0
N1 = 10.0
K0 = 31756.0
tax0 = 0.0
G0 = 0.0
G1 = 0.0
l0_max = 35000.0
l1_max = 29440.0
years_per_period = 16.0
"""


def instance_text(instance):
    """Every parameter as an instance-file line, in file order; repr keeps
    each value bit for bit."""
    return "".join(f"{spelling} = {getattr(instance, field)!r}\n"
                   for spelling, field, _, _ in PARAMETERS)


class TestInstanceRoundTrip:
    def test_baseline_text(self, baseline):
        assert instance_text(baseline) == BASELINE_TEXT
        assert parse_instance(BASELINE_TEXT) == baseline

    def test_parameter_table(self, baseline):
        """One row per ModelInstance field; no two rows share a spelling,
        whatever its case; rows in instance-file order."""
        assert (sorted(field for _, field, _, _ in PARAMETERS)
                == sorted(ModelInstance.__dataclass_fields__))
        names = [name for spelling, field, _, _ in PARAMETERS
                 for name in {spelling.lower(), field.lower()}]
        assert len(names) == len(set(names))
        assert [line.split(" = ")[0] for line in BASELINE_TEXT.splitlines()] \
            == [spelling for spelling, _, _, _ in PARAMETERS]
        assert instance_text(baseline) == BASELINE_TEXT

    def test_bit_identical_equilibria(self, baseline):
        tweaked = replace(baseline, k0=12345.6789, gamma=1.7000000000000002)
        recovered = parse_instance(instance_text(tweaked))
        assert recovered == tweaked
        a = solve_at_rate(tweaked, 0.4821)
        b = solve_at_rate(recovered, 0.4821)
        assert a == b

    def test_omitted_keys_default_to_baseline(self, baseline):
        parsed = parse_instance("gamma = 2.0\n")
        assert parsed.gamma == 2.0
        assert parsed.theta == baseline.theta
        assert parsed.k0 == baseline.k0

    def test_table_spellings_and_comments(self, baseline):
        parsed = parse_instance(
            "# calibration override\n"
            "A1 = 1.15   # productivity\n"
            "tax0 = 5\n"
            "K0 = 30000\n")
        assert parsed.a1 == 1.15
        assert parsed.t0 == 5.0
        assert parsed.k0 == 30000.0

    def test_unknown_key_errors(self):
        with pytest.raises(ParseError):
            parse_instance("sigma = 2.0\n")

    def test_malformed_lines(self):
        with pytest.raises(ParseError):
            parse_instance("gamma 2.0\n")
        with pytest.raises(ParseError):
            parse_instance("gamma = lots\n")

    @pytest.mark.parametrize("text, message", [
        ("A1 = 1.2\nalpha = 0.5\na1 = 1.3\n",
         "line 3: parameter 'a1' repeats line 1"),
        ("K0 = 1\n# again\nK0 = 1\n", "line 3: parameter 'k0' repeats line 1"),
        ("tax0 = 1\n t0 = 2\n", "line 2: parameter 't0' repeats line 1"),
    ])
    def test_parameter_given_twice_errors(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_instance(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text, message", [
        ("A1 = 1.2\nK0 = inf\n", "line 2: k0 must be finite"),
        ("A1 = 1.2\nK0 = inf\nalpha = 2\n", "line 2: k0 must be finite"),
        ("alpha = 2\nK0 = -1\n", "line 1: alpha must lie in (0, 1)"),
        ("# calibration\nN0 = 1\n\nl1_max = 0\n",
         "line 4: household counts and time endowments must be positive"),
    ])
    def test_rejected_value_names_first_line_at_fault(self, text, message):
        with pytest.raises(DomainError) as info:
            parse_instance(text)
        assert str(info.value) == message

    def test_finite_values_whose_sum_overflows_parse(self):
        instance = parse_instance("K0 = 1.5e308\nl0_max = 1.5e308\n"
                                  "l1_max = 1.5e308\n")
        assert (instance.k0, instance.l0_max, instance.l1_max) == (1.5e308,) * 3

    @pytest.mark.parametrize("text, error, message", [
        ("K0 = -1\nfoo = 1\n", ParseError, "line 2: unknown parameter 'foo'"),
        ("K0 = -1\nalpha = x\n", ParseError,
         "line 2: alpha = 'x' is not a number"),
        ("alpha = 3\ngamma = -1\n", DomainError,
         "line 1: alpha must lie in (0, 1)"),
        ("gamma = inf\nalpha = 3\n", DomainError, "line 1: gamma must be finite"),
        ("tax0 = inf\n", DomainError, "line 1: t0 must be finite"),
        ("tax0 = -inf\nG0 = inf\n", DomainError, "line 1: t0 must be finite"),
    ])
    def test_precedence(self, text, error, message):
        """Every line parses before any value is checked; values are then
        checked alone, in line order, each rule before its finiteness."""
        with pytest.raises(ValueError) as info:
            parse_instance(text)
        assert (type(info.value), str(info.value)) == (error, message)


class TestScenarioFiles:
    def test_basic_sections(self):
        scenarios = parse_scenarios(
            "[baseline]\n"
            "rate = 0.4821\n"
            "\n"
            "[higher_gamma]\n"
            "rate = 0.4821\n"
            "perturb.gamma = 1.15\n"
            "\n"
            "[custom]\n"
            "rate = 0.5\n"
            "set.A1 = 1.2\n")
        assert [s.name for s in scenarios] == ["baseline", "higher_gamma",
                                               "custom"]
        assert scenarios[1].perturbations == {"gamma": 1.15}
        assert scenarios[2].overrides == {"a1": 1.2}

    @pytest.mark.parametrize("text, message", [
        ("[x]\nrate = 0.5\nset.K0 = -1\n",
         "line 3: initial capital k0 must be positive"),
        ("[a]\nrate = 0.5\n\n# shares\n[b]\nrate = 0.5\nset.A1 = 1.1\n"
         "set.alpha = 2\n", "line 8: alpha must lie in (0, 1)"),
        ("[x]\nset.n0 = inf\nclosure = balanced_trade\n",
         "line 2: n0 must be finite"),
    ])
    def test_rejected_set_value_names_its_line(self, text, message):
        with pytest.raises(DomainError) as info:
            parse_scenarios(text)
        assert str(info.value) == message

    def test_perturbation_range_is_checked_on_its_base(self):
        """A factor's result depends on the base it scales, so a factor no
        base accepts still parses; run_suite fails that scenario alone."""
        (s,) = parse_scenarios("[x]\nrate = 0.5\nperturb.K0 = -1\n")
        assert s.perturbations == {"k0": -1.0}

    def test_closure_block(self):
        (s,) = parse_scenarios(
            "[bt]\n"
            "closure = balanced_trade\n"
            "bracket = 0.4821, 2.0\n")
        assert s.rate is None
        assert s.closure.kind == "balanced_trade"
        assert s.closure.bracket == (0.4821, 2.0)

    def test_sweep_grid(self):
        (s,) = parse_scenarios(
            "[sweep]\n"
            "closure = welfare_sweep\n"
            "sweep_grid = 0.3, 0.5, 0.7\n")
        assert s.closure.grid == (0.3, 0.5, 0.7)

    def test_entry_before_header(self):
        with pytest.raises(ParseError):
            parse_scenarios("rate = 0.5\n")

    def test_unknown_scenario_key(self):
        with pytest.raises(ParseError):
            parse_scenarios("[x]\nrate = 0.5\nshock = 2\n")

    def test_section_missing_rate_and_closure(self):
        with pytest.raises(ParseError):
            parse_scenarios("[x]\nperturb.gamma = 1.1\n")

    @pytest.mark.parametrize("text, message", [
        ("[x]\nrate = 0.5\nclosure = balanced_trade\n",
         "line 1: scenario 'x' has both a rate and a closure"),
        ("[a]\nrate = 0.5\n# swept\n[b]\nclosure = welfare_sweep\n"
         "sweep_grid = 0.3, 0.5\nrate = 0.4\n",
         "line 4: scenario 'b' has both a rate and a closure"),
    ])
    def test_section_with_rate_and_closure(self, text, message):
        """A closure picks the rate, so a rate beside it is an error on the
        header line."""
        with pytest.raises(ParseError) as info:
            parse_scenarios(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text, message", [
        ("[f]\nrate = 0.5\nclosure = fixed\n",
         "line 3: unknown closure kind 'fixed'"),
        ("[x]\nclosure = balanced_trade\ntarget = 0.3\n",
         "line 2: balanced_trade closure takes no target_share"),
        ("[x]\n# searched\nclosure = trade_share_target\ntarget = 0.1\n"
         "sweep_grid = 0.3, 0.5\n",
         "line 3: trade_share_target closure takes no rate grid"),
        ("[x]\nclosure = welfare_sweep\nsweep_grid = 0.3, 0.5\n"
         "bracket = 0.1, 0.2\n",
         "line 2: welfare_sweep closure takes no bracket"),
        ("[x]\nclosure = welfare_sweep\nsweep_grid = 0.3, 0.5\n"
         "max_iterations = 3\n",
         "line 4: unknown scenario key 'max_iterations'"),
        ("[x]\nclosure = balanced_trade\nbracket = 0.4821, 2.0\n"
         "closure_tol = 1e-8\n",
         "line 4: unknown scenario key 'closure_tol'"),
    ])
    def test_closure_error_names_the_closure_line(self, text, message):
        """`closure = fixed` is an unknown kind; a given rate is `rate =`
        alone.  A key that the kind does not read is refused on the closure
        line; `max_iterations` and `closure_tol` are no keys, each refused on
        its own line."""
        with pytest.raises(ParseError) as info:
            parse_scenarios(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text, message", [
        ("[a]\nrate = 0.5\nbracket = 0.1, 0.2\ntarget = 3\n",
         "line 3: bracket needs a closure line"),
        ("[a]\nrate = 0.5\n[b]\n# swept\nsweep_grid = 0.3, 0.5\nrate = 0.4\n",
         "line 5: sweep_grid needs a closure line"),
        ("[a]\ntarget = 0.1\n", "line 2: target needs a closure line"),
    ])
    def test_closure_key_without_closure_line(self, text, message):
        """A closure key is read only beside a closure line; without one it
        is refused on its own line, not dropped."""
        with pytest.raises(ParseError) as info:
            parse_scenarios(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text, message", [
        ("[x]\nrate = 0.5\nrate = 0.6\n", "line 3: key 'rate' repeats line 2"),
        ("[x]\nclosure = balanced_trade\nbracket = 0.1, 1\nbracket = 0.2, 1\n",
         "line 4: key 'bracket' repeats line 3"),
        ("[x]\nrate = 0.5\nset.A1 = 2\nset.a1 = 3\n",
         "line 4: key 'set.a1' repeats line 3"),
        ("[x]\nrate = 0.5\nperturb.tax0 = 2\nperturb. T0 = 3\n",
         "line 4: key 'perturb.t0' repeats line 3"),
        ("[x]\nrate = 0.5\n[y]\nrate = 0.4\n[ x ]\nrate = 0.3\n",
         "line 5: section 'x' repeats line 1"),
    ])
    def test_name_given_twice_errors(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_scenarios(text)
        assert str(info.value) == message

    def test_same_key_in_two_sections(self):
        scenarios = parse_scenarios("[x]\nrate = 0.5\nset.A1 = 2\n"
                                    "[y]\nrate = 0.5\nset.A1 = 3\n")
        assert [s.overrides for s in scenarios] == [{"a1": 2.0}, {"a1": 3.0}]


class TestNumericEmission:
    def test_json_number_stability(self):
        assert json_number(0.1 + 0.2) == 0.3
        assert json_number(96492.6712345678901) == float("96492.6712345679")

    def test_csv_number(self):
        assert csv_number(96492.6712) == "96492.7"
        assert csv_number(-0.15494) == "-0.15494"

    def test_to_json_sorted_and_deterministic(self):
        payload = {"b": 2.0, "a": [1.0, {"z": 0.1 + 0.2}]}
        out = to_json(payload)
        assert out == to_json(payload)
        assert out.index('"a"') < out.index('"b"')
        assert out.endswith("\n")

    def test_to_csv(self):
        assert to_csv([["r", "I0"], [0.4821, 33506.02]]) == \
            "r,I0\n0.4821,33506\n"


# ---------------------------------------------------------------------------
# Fuzzing: lines built from the real keys, with good and bad values
# ---------------------------------------------------------------------------

SPELLINGS = [name for spelling, path, _, _ in PARAMETERS for name in (spelling, path)]
values = (st.floats(0.01, 2.0).map(repr) | st.integers(1, 40).map(str)
          | st.floats().map(repr) | st.text(max_size=6)
          | st.sampled_from(["1e999", "-0", "nan", "x", "?", "", "1.5", "1,2",
                             "0x10", "1_000", "-3"]))
value_lists = st.lists(values, min_size=1, max_size=4).map(", ".join)
CLOSURE_KINDS = ["fixed", "balanced_trade", "trade_share_target",
                 "welfare_sweep", "bisect"]


def lines(key, value):
    return st.tuples(key, value).map(" = ".join)


parameter_lines = lines(st.sampled_from(SPELLINGS), values)
scenario_lines = (
    lines(st.sampled_from(["set.", "perturb."]).flatmap(
        lambda prefix: st.sampled_from(SPELLINGS + ["beta"]).map(
            prefix.__add__)), values)
    | lines(st.just("rate"), values)
    | lines(st.just("closure"), st.sampled_from(CLOSURE_KINDS))
    | lines(st.sampled_from(["bracket", "sweep_grid"]), value_lists)
    | lines(st.just("target"), values))
random_lines = st.text(max_size=12)


@st.composite
def scenario_texts(draw):
    """[name] sections of scenario lines, most with a closure line, and a
    random line now and then."""
    out = []
    for name in draw(st.lists(st.text(max_size=4), max_size=3)):
        out.append(f"[{name}]")
        if draw(st.integers(0, 3)):
            out.append(f"closure = {draw(st.sampled_from(CLOSURE_KINDS))}")
        out += draw(st.lists(scenario_lines, max_size=5))
    if out and draw(st.integers(0, 3)) == 0:
        out.insert(draw(st.integers(0, len(out))), draw(random_lines))
    return "\n".join(out)


@given(text=st.lists(parameter_lines | random_lines, max_size=8).map("\n".join))
@settings(max_examples=300, deadline=None)
def test_parse_instance_gives_instance_or_input_error(text):
    try:
        instance = parse_instance(text)
    except (ParseError, DomainError):
        return
    assert isinstance(instance, ModelInstance)


@given(text=scenario_texts())
@settings(max_examples=300, deadline=None)
def test_parse_scenarios_gives_scenarios_or_input_error(text):
    try:
        scenarios = parse_scenarios(text)
    except (ParseError, DomainError):
        return
    assert all(isinstance(s, Scenario) for s in scenarios)
