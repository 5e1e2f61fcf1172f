"""Property test over ``run``'s config space: whatever the flags, ``main``
returns an exit code instead of raising, a failed run writes nothing, and
a successful one writes ``config.txt`` plus one CSV per method.

Sizes stay at n <= 40, d <= 5 and passes <= 3 so the search takes seconds.
The examples are derandomized, so the suite stays deterministic.
"""

import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from interpsgd.cli import main  # noqa: E402
from interpsgd.data import generate_margin_data, save_libsvm  # noqa: E402
from interpsgd.harness import RHO_RULES, STEP_RULES  # noqa: E402
from interpsgd.objectives import LOSS_KINDS  # noqa: E402
from interpsgd.optimizers import METHODS  # noqa: E402


def _text(strategy):
    return strategy.map(str)


_NUMBER = st.one_of(
    st.sampled_from([0.0, -1.0, 1e-3, 0.1, 0.5, 1.0, 4.0, 1e3, float("nan"), float("inf")]),
    st.floats(-2.0, 5.0, allow_nan=False),
)

# flag -> strategy of its value; each example passes a subset of them
_FLAGS = {
    "--dataset": st.sampled_from(["synthetic", "libsvm"]),
    "--n": _text(st.integers(-1, 40)),
    "--d": _text(st.integers(0, 5)),
    "--tau": _text(st.one_of(st.sampled_from([0.0, 0.05, 0.2, 0.9, 1.5]), _NUMBER)),
    "--balance": st.sampled_from(["true", "false"]),
    "--libsvm-path": st.sampled_from(["DATA", "missing.txt"]),
    "--n-sub": _text(st.integers(-1, 40)),
    "--normalize": st.sampled_from(["true", "false"]),
    "--rbf": st.sampled_from(["true", "false"]),
    "--rbf-centers": _text(st.integers(-1, 6)),
    "--rbf-bandwidth": _text(_NUMBER),
    "--loss": st.sampled_from(LOSS_KINDS),
    "--mu": _text(_NUMBER),
    "--methods": st.lists(st.sampled_from(METHODS), min_size=1, max_size=4).map(",".join),
    "--step-rule-sgd": st.sampled_from(STEP_RULES),
    "--step-rule-accel": st.sampled_from(STEP_RULES),
    "--eta-sgd": _text(_NUMBER),
    "--eta-accel": _text(_NUMBER),
    "--mode": st.sampled_from(["convex", "strongly_convex"]),
    "--rho-rule": st.sampled_from(RHO_RULES),
    "--rho": _text(_NUMBER),
    "--rho-grid": st.lists(_NUMBER, max_size=3).map(lambda xs: ",".join(map(str, xs))),
    "--grid-passes": _text(st.integers(0, 2)),
    "--ls-init": _text(_NUMBER),
    "--seed": _text(st.integers(-3, 1000)),
    "--sigma": _text(st.one_of(st.sampled_from([0.0, 0.1]), _NUMBER)),
    "--averaging": st.sampled_from(["true", "false"]),
}


@st.composite
def _run_flags(draw):
    chosen = draw(st.lists(st.sampled_from(sorted(_FLAGS)), unique=True, max_size=10))
    flags = {flag: draw(_FLAGS[flag]) for flag in chosen}
    # the sizes stay small whether or not the example sets them
    flags.setdefault("--n", "30")
    flags.setdefault("--d", "4")
    flags["--passes"] = draw(_text(st.integers(0, 3)))
    return flags


@pytest.fixture(scope="module")
def libsvm_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "data.txt"
    save_libsvm(generate_margin_data(30, 4, 0.2, seed=5), path)
    return str(path)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None,
                     suppress_health_check=[hypothesis.HealthCheck.too_slow])
@hypothesis.given(flags=_run_flags())
def test_run_exits_cleanly_and_writes_all_or_nothing(libsvm_file, flags):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        argv = ["run", "--out", out]
        for flag, value in flags.items():
            argv += [flag, libsvm_file if value == "DATA" else value]
        code = main(argv)
        assert code in (0, 1, 2)
        if code != 0:
            assert not os.path.exists(out)
        else:
            methods = flags.get("--methods", "sgd,accel").split(",")
            assert sorted(os.listdir(out)) == sorted(
                ["config.txt", *(f"{method}.csv" for method in methods)]
            )
