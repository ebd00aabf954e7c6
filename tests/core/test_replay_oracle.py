"""The columnar battery replay against its per-home oracle.

``replay_oracle.py`` holds the replay as it was before ``iter_windows``
gathered each series into one matrix, ``AgentWindowState`` became a
``NamedTuple`` and the engines stopped trimming every slice to their agents.
Whatever the dataset, home count, window range or battery policy, the product
replay must reproduce the oracle's states and every agent's state-of-charge
trajectory bit for bit (``float.hex``), and the two ``_replace`` callers must
build the states ``dataclasses.replace`` built.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import helpers
from replay_oracle import OracleWindowState, oracle_replay
from repro.core import PAPER_PARAMETERS, PlainTradingEngine
from repro.core.adversary import CheatingSellerSpec, apply_cheating
from repro.core.agent import AgentWindowState, GreedyBatteryPolicy, NoBatteryPolicy
from repro.core.incentives import _replace_state
from repro.core.pem import build_agents, states_for_window
from repro.data import TraceConfig, generate_dataset
from repro.data.loader import iter_windows

_FLOAT_FIELDS = (
    "generation_kwh",
    "load_kwh",
    "battery_kwh",
    "battery_loss_coefficient",
    "preference_k",
)
_DERIVED = ("net_energy_kwh", "generation_rate_kw", "load_rate_kw", "battery_rate_kw")


@dataclasses.dataclass(frozen=True)
class ThresholdPolicy:
    """A scalar policy unlike the product ones: charge a third of any
    generation above a threshold, otherwise release a tenth of the charge."""

    threshold_kwh: float = 0.004

    def battery_action(self, profile, state_of_charge_kwh, generation_kwh, load_kwh):
        if generation_kwh > self.threshold_kwh:
            return min(generation_kwh / 3.0, profile.battery_capacity_kwh - state_of_charge_kwh)
        return -state_of_charge_kwh / 10.0


POLICIES = (
    None,
    NoBatteryPolicy(),
    GreedyBatteryPolicy(),
    GreedyBatteryPolicy(charge_fraction=0.9, discharge_fraction=0.9, max_rate_fraction=0.5),
    ThresholdPolicy(),
)


def product_replay(dataset, start, stop, home_count=None, battery_policy=None):
    agents = build_agents(dataset, battery_policy=battery_policy, home_count=home_count)
    states, charges = [], []
    for window_slice in iter_windows(dataset, start, stop):
        states.append(states_for_window(agents, window_slice))
        charges.append([agent.state_of_charge_kwh for agent in agents])
    return states, charges


def assert_state_bit_equal(state, oracle: OracleWindowState) -> None:
    assert type(state) is AgentWindowState
    assert state._fields == tuple(f.name for f in dataclasses.fields(oracle))
    assert state.agent_id == oracle.agent_id
    assert type(state.window) is int and state.window == oracle.window
    for name in _FLOAT_FIELDS + _DERIVED:
        value, expected = getattr(state, name), getattr(oracle, name)
        assert type(value) is float, name
        assert value.hex() == expected.hex(), (name, value, expected)
    assert state.pricing_denominator_term().hex() == oracle.pricing_denominator_term().hex()
    assert state.role is oracle.role


def as_product_state(oracle: OracleWindowState) -> AgentWindowState:
    return AgentWindowState(**dataclasses.asdict(oracle))


@st.composite
def replays(draw):
    homes = draw(st.integers(min_value=1, max_value=40))
    window_count = draw(st.sampled_from((1, 7, 90, 720)))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    start = draw(st.integers(min_value=0, max_value=window_count))
    stop = draw(st.integers(min_value=start, max_value=min(window_count, start + 120)))
    home_count = draw(st.none() | st.integers(min_value=1, max_value=homes))
    policy = draw(st.sampled_from(POLICIES))
    dataset = generate_dataset(TraceConfig(home_count=homes, window_count=window_count, seed=seed))
    return dataset, start, stop, home_count, policy


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(replays())
def test_replay_is_bit_identical_to_the_per_home_oracle(case):
    dataset, start, stop, home_count, policy = case
    states, charges = product_replay(dataset, start, stop, home_count, policy)
    expected_states, expected_charges = oracle_replay(dataset, start, stop, home_count, policy)
    agents = dataset.home_count if home_count is None else home_count
    assert len(states) == len(expected_states) == stop - start
    for window_states, oracle_states in zip(states, expected_states):
        assert len(window_states) == len(oracle_states) == agents
        for state, oracle in zip(window_states, oracle_states):
            assert_state_bit_equal(state, oracle)
    assert [[c.hex() for c in row] for row in charges] == [
        [c.hex() for c in row] for row in expected_charges
    ]


def test_the_oracle_sees_batteries_move():
    """The property above means something only if the replay charges and discharges."""
    dataset = generate_dataset(TraceConfig(home_count=24, window_count=720, seed=7))
    states, charges = product_replay(dataset, 0, 720)
    actions = [state.battery_kwh for window in states for state in window]
    assert any(b > 0 for b in actions) and any(b < 0 for b in actions)
    assert len({tuple(row) for row in charges}) > 100


def test_run_day_on_fewer_homes_matches_the_trimmed_oracle():
    dataset = generate_dataset(TraceConfig(home_count=20, window_count=720, seed=7))
    windows = [0, 300, 360, 420, 719]
    day = PlainTradingEngine(PAPER_PARAMETERS).run_day(dataset, home_count=7, windows=windows)
    oracle_states, _ = oracle_replay(dataset, 0, 720, home_count=7)
    engine = PlainTradingEngine(PAPER_PARAMETERS)
    assert [result.window for result in day] == windows
    for result in day:
        expected = engine.run_window(
            result.window, [as_product_state(s) for s in oracle_states[result.window]]
        )
        assert result == expected
        coalitions = result.coalitions
        assert len(coalitions.sellers) + len(coalitions.buyers) + len(coalitions.off_market) == 7


def test_execute_shard_on_fewer_homes_matches_the_trimmed_oracle():
    market = helpers.tiny_market()
    window = market.windows[-1]
    home_count = market.dataset.home_count - 3
    traces, _ = market.engine().execute_shard(market.dataset, [window], home_count=home_count)
    oracle_states, _ = oracle_replay(market.dataset, 0, window + 1, home_count=home_count)
    expected = PlainTradingEngine(PAPER_PARAMETERS).run_window(
        window, [as_product_state(s) for s in oracle_states[window]]
    )
    # Prices agree with the plaintext engine only to fixed-point precision;
    # what the replay feeds the window — every state — must agree exactly.
    assert len(traces) == 1
    assert traces[0].result.coalitions == expected.coalitions
    assert traces[0].result.case == expected.case


def _window_states():
    dataset = generate_dataset(TraceConfig(home_count=12, window_count=720, seed=7))
    states, _ = product_replay(dataset, 0, 361)
    oracle, _ = oracle_replay(dataset, 0, 361)
    return states[-1], oracle[-1]


def test_incentive_misreports_replace_like_dataclasses_replace():
    states, oracle = _window_states()
    target = states[4].agent_id
    replaced = _replace_state(states, target, load_kwh=states[4].load_kwh * 0.7)
    for index, (state, expected) in enumerate(zip(replaced, oracle)):
        if state.agent_id == target:
            expected = dataclasses.replace(expected, load_kwh=expected.load_kwh * 0.7)
        else:
            assert state is states[index]
        assert_state_bit_equal(state, expected)
    with pytest.raises(KeyError):
        _replace_state(states, "no-such-home", load_kwh=0.0)


def test_cheating_sellers_replace_like_dataclasses_replace():
    states, oracle = _window_states()
    specs = [CheatingSellerSpec(states[1].agent_id, 0.5), CheatingSellerSpec(states[9].agent_id, 1.3)]
    scales = {spec.agent_id: spec.load_scale for spec in specs}
    distorted = apply_cheating(states, specs)
    for state, expected in zip(distorted, oracle):
        if state.agent_id in scales:
            expected = dataclasses.replace(
                expected, load_kwh=expected.load_kwh * scales[state.agent_id]
            )
        assert_state_bit_equal(state, expected)


def test_window_state_is_an_immutable_record():
    state, _ = _window_states()
    first = state[0]
    with pytest.raises(AttributeError):
        first.load_kwh = 1.0
    assert first._replace(load_kwh=1.0).load_kwh == 1.0 and first.load_kwh != 1.0
