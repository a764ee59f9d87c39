"""Run identity and the front door's run-config memo.

``ServiceState`` parses each spelling of a run config once and answers
later jobs naming it from a dict; these tests hold the memo to the cold
parser (same run id, or the same error) and pin the run ids that
persisted logs are keyed by.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.service.api import CONFIGS_PER_RUN, ServiceState
from repro.service.event_store import EventStore
from repro.service.models import RunConfig, config_key

MAX_RUNS = 2


@pytest.fixture(scope="module")
def state(tmp_path_factory):
    store = EventStore(str(tmp_path_factory.mktemp("memo") / "events.db"))
    state = ServiceState(store, max_runs=MAX_RUNS, time_scale=1000.0)
    yield state
    assert state.close(timeout=30.0)
    store.close()


@pytest.mark.parametrize(
    "payload, run_id",
    [
        ({"policy": "hawk"}, "hawk-ee96a404"),
        ({"policy": "sparrow", "n_workers": 50, "seed": 3}, "sparrow-c1d2cb9a"),
        ({"policy": "hawk", "n_workers": 50, "cutoff": 0.1}, "hawk-0d62db57"),
        ({"policy": "hawk", "n_workers": 50.0, "cutoff": 0.1}, "hawk-0d62db57"),
    ],
)
def test_run_ids_are_pinned(payload, run_id):
    assert RunConfig.from_json(payload).run_id == run_id


@pytest.mark.parametrize("cutoff", [float("inf"), float("-inf"), float("nan")])
def test_a_non_finite_cutoff_is_rejected_by_name(cutoff):
    with pytest.raises(ConfigurationError, match="cutoff"):
        RunConfig.from_json({"policy": "hawk", "cutoff": cutoff})


@pytest.mark.parametrize(
    "field, value",
    [("n_workers", 100.9), ("n_workers", True), ("seed", True), ("seed", 1.5)],
)
def test_an_integer_field_is_never_truncated(field, value):
    # int() made {"n_workers": 100.9, "seed": true} the run of
    # {"n_workers": 100, "seed": 1}.
    with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
        RunConfig.from_json({"policy": "hawk", field: value})


def test_integral_floats_and_digit_strings_still_parse():
    same = RunConfig.from_json({"policy": "hawk", "n_workers": 50, "seed": 2})
    for n_workers, seed in ((50.0, 2.0), ("50", "2")):
        spelled = {"policy": "hawk", "n_workers": n_workers, "seed": seed}
        assert RunConfig.from_json(spelled) == same


def test_spellings_key_apart_by_type():
    def key(**fields):
        return config_key({"policy": "hawk", **fields})

    assert len({key(seed=1), key(seed=1.0), key(seed=True), key(seed="1")}) == 4
    assert key(short_partition_fraction=0.0) != key(
        short_partition_fraction=-0.0
    )
    # Absent fields key as the default the parser reads.
    assert key() == key(n_workers=100, cutoff=1.129, seed=0, params={})
    assert key(seed=[1]) is None and key(params={"steal_cap": [1]}) is None
    assert key(params=[("steal_cap", 1)]) is None


SCALARS = st.sampled_from(
    [None, False, True, -1, 0, 1, 2, 0.0, -0.0, 0.5, 1.0, 2.0, 1e400]
    + [float("nan"), "", "1", "hawk"]
)
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=2))


def field(*usual):
    """Mostly a value the field usually takes, one time in eight any value."""
    return st.integers(0, 7).flatmap(
        lambda i: VALUES if i == 0 else st.sampled_from(usual)
    )


PAYLOADS = st.fixed_dictionaries(
    {"policy": field("hawk", "sparrow")},
    optional={
        "n_workers": field(1, 50, 50.0, True),
        "cutoff": field(0.1, 1, 1.0, True),
        "short_partition_fraction": field(0, 0.0, -0.0, 0.5, False),
        "seed": field(0, 1, 1.0, -0.0, True),
        "params": st.one_of(
            VALUES,
            st.dictionaries(
                st.sampled_from(["probe_ratio", "steal_cap", "bogus"]),
                field(1, 2, 2.0, True),
                max_size=2,
            ),
        ),
    },
)


def respell(value):
    """An equal value of another JSON type: true→1→1.0→1, 0.0↔-0.0."""
    if isinstance(value, dict):
        return {name: respell(v) for name, v in value.items()}
    if type(value) is bool:
        return int(value)
    if type(value) is int:
        return float(value)
    if type(value) is float and value == 0:
        return -value
    if type(value) is float and value.is_integer():
        return int(value)
    return value


def outcome(parse, payload):
    try:
        return "ok", parse(payload).run_id
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(batch=st.lists(PAYLOADS, min_size=1, max_size=4))
def test_a_warm_memo_parses_like_a_cold_parser(state, batch):
    # Each payload goes through the memo twice, so the second read is a
    # hit whenever the first parsed, with its respelling in between;
    # earlier examples keep the memo warm.
    twins = [{f: respell(v) for f, v in payload.items()} for payload in batch]
    for payload in batch + twins + batch:
        assert outcome(state._config, payload) == outcome(
            RunConfig.from_json, payload
        ), payload


def test_the_memo_stays_within_its_bound(state):
    bound = CONFIGS_PER_RUN * MAX_RUNS
    for seed in range(5 * bound):
        state._config({"policy": "sparrow", "seed": seed})
        assert len(state._configs) <= bound
    assert len(state._configs) >= 1


def test_errors_are_not_memoized(state):
    before = dict(state._configs)
    for _ in range(2):
        with pytest.raises(ConfigurationError, match="cutoff"):
            state._config({"policy": "hawk", "cutoff": -1.0})
    assert state._configs == before


def test_a_memo_hit_after_close_gets_the_shutdown_error(tmp_path):
    store = EventStore(str(tmp_path / "events.db"))
    state = ServiceState(store, time_scale=1000.0)
    job = {"policy": "sparrow", "n_workers": 8, "tasks": [0.02]}
    assert state.submit(job)["job_id"] == 0
    assert config_key(job) in state._configs
    assert state.close(timeout=30.0)
    with pytest.raises(ConfigurationError, match="service is shutting down"):
        state.submit(job, create=False)
    store.close()
