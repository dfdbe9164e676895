"""No value that decides or prints moves with the CPU's kernels.

Each test runs :func:`pricing_bits` in a child process whose environment
makes OpenBLAS or numpy pick other kernels, and compares the raw bits of
every value with this process's. Under ``OPENBLAS_CORETYPE`` all of them
must hold: the sampled inputs, the matrix's row means and failure table,
the probabilities rul_threshold crosses, each policy's expected cost, CVaR
and schedule, at three seeds with N=40, S=500 (past the enumeration
budget, so integrated_cvar takes the descent). Under
``NPY_DISABLE_CPU_FEATURES``, which also switches the kernel of ``np.exp``
and so every cost, only what no ``np.exp`` reaches is compared: the
sampled inputs, and the weighted sum and CVaR kernels on fixed arrays.
"""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from fleetmaint import policies
from fleetmaint.cli import POLICY_ORDER, _solve
from fleetmaint.config import parse_config
from fleetmaint.criteria import batch_cvar, weighted_sum
from fleetmaint.optimize import build_matrix, indices_from_schedule
from fleetmaint.scenario import sample_pricing_inputs

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
N_ASSETS, N_SCENARIOS = 40, 500
# what NPY_DISABLE_CPU_FEATURES leaves alone: no np.exp is on their path
KERNEL_KEYS = ("latent_rul", "usage_mean", "weighted_sum", "batch_cvar")


def pricing_bits() -> dict[str, np.ndarray]:
    """Every value compared, by name: per seed, the sampled inputs, the
    matrix's tables, rul_threshold's probabilities, and each policy's
    expected cost, CVaR and candidate indices; then one weighted sum and
    one batch of CVaRs on fixed (13, S) values."""
    bits = {}
    for seed in SEEDS:
        config = parse_config({
            "fleet": {"n_assets": N_ASSETS, "seed": seed},
            "scenarios": {"n_scenarios": N_SCENARIOS, "seed": seed},
        })
        fleet = config.build_fleet()
        inputs = sample_pricing_inputs(fleet, config.n_scenarios, config.scenario_seed)
        matrix = build_matrix(fleet, inputs, config.risk)
        with mock.patch.object(policies, "weighted_sum", wraps=weighted_sum) as spy:
            solved = _solve(POLICY_ORDER, config, matrix)
        assert spy.call_count == N_ASSETS  # rul_threshold's sum for each asset
        bits |= {
            f"{seed}/latent_rul": inputs.latent_rul,
            f"{seed}/usage_mean": inputs.usage_mean,
            f"{seed}/means": matrix.means,
            f"{seed}/failure": matrix.failure,
            f"{seed}/rul_probabilities": np.stack(
                [weighted_sum(*call.args, **call.kwargs) for call in spy.call_args_list]
            ),
            f"{seed}/expected_cost": np.array([summary.expected_cost for *_, summary in solved]),
            f"{seed}/cvar": np.array([summary.cvar for *_, summary in solved]),
            f"{seed}/schedules": np.array(
                [indices_from_schedule(schedule, fleet) for schedule, *_ in solved]
            ),
        }
    values = np.random.default_rng(0).random((13, N_SCENARIOS)) * 1e3
    weights = np.full(N_SCENARIOS, 1.0 / N_SCENARIOS)
    bits["weighted_sum"] = weighted_sum(values, weights)
    bits["batch_cvar"] = batch_cvar(values, weights, 0.9)
    return bits


@pytest.fixture(scope="module")
def own_bits():
    return pricing_bits()


def child_bits(env: dict[str, str], out: Path) -> dict[str, np.ndarray]:
    """:func:`pricing_bits` computed in a child process under ``env``."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from test_cpu_bits import pricing_bits\n"
        "np.savez(sys.argv[1], **pricing_bits())\n"
    )
    path = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(out)],
        env=dict(os.environ, **env, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    with np.load(out) as saved:
        return dict(saved)


def moved(own: dict, other: dict, keys) -> list[str]:
    """Each key among ``keys`` whose array differs in any bit, with the
    number of entries that differ."""
    out = []
    for key in keys:
        a, b = own[key], other[key]
        if a.dtype != b.dtype or a.shape != b.shape:
            out.append(f"{key}: {a.dtype}{a.shape} != {b.dtype}{b.shape}")
        elif a.tobytes() != b.tobytes():
            out.append(f"{key}: {np.count_nonzero(a != b)} of {a.size} entries")
    return out


def _openblas_has_dynamic_arch() -> bool:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(
    not _openblas_has_dynamic_arch(),
    reason="an OpenBLAS built without DYNAMIC_ARCH ignores OPENBLAS_CORETYPE",
)
@pytest.mark.parametrize("core", ["Prescott", "Nehalem"])
def test_openblas_core_type_moves_no_bit(core, own_bits, tmp_path):
    other = child_bits({"OPENBLAS_CORETYPE": core}, tmp_path / "bits.npz")
    assert set(other) == set(own_bits)
    assert moved(own_bits, other, sorted(own_bits)) == []


def test_numpy_cpu_features_move_no_sum(own_bits, tmp_path):
    env = {"NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR"}
    other = child_bits(env, tmp_path / "bits.npz")
    keys = sorted(key for key in own_bits if key.rpartition("/")[2] in KERNEL_KEYS)
    assert len(keys) == 2 * len(SEEDS) + 2
    assert moved(own_bits, other, keys) == []
