import pytest

import spincorr
from spincorr import harness, hidden, quantum, streams

MODULES = (harness, hidden, quantum, streams)

PUBLIC_NAMES = {
    "__version__",
    "BlochDirection",
    "CHANNEL_EIGENVALUES",
    "CHANNEL_OUTCOMES",
    "CHSH_SIGNS",
    "ChshReport",
    "HIDDEN_ANGLE",
    "PairResult",
    "SettingSeries",
    "canonical_settings",
    "channel_states",
    "channel_weights",
    "correlation_exact",
    "correlations_exact",
    "decompose_eigenbasis",
    "decompose_intermediate",
    "estimate_correlation",
    "joint_projection",
    "partition_measures",
    "product_states",
    "run_chsh",
    "run_pairs",
    "run_series",
    "run_transfer_baseline",
    "sample_phi",
    "sample_singlet_batch",
    "single_electron_correlation",
    "singlet",
    "singlet_correlation_analytic",
    "spin_eigenbasis",
    "spin_projection",
    "substream",
    "transfer_correlation_analytic",
}


def test_every_exported_name_resolves():
    missing = [name for name in spincorr.__all__ if not hasattr(spincorr, name)]
    assert missing == []


def test_exported_names_are_unique():
    assert len(spincorr.__all__) == len(set(spincorr.__all__))


def test_the_package_exports_the_public_names():
    assert set(spincorr.__all__) == PUBLIC_NAMES


def test_the_package_exports_each_module_list_in_turn():
    assert spincorr.__all__ == ["__version__", *(name for m in MODULES for name in m.__all__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_module_name_resolves_in_its_own_module(module):
    for name in module.__all__:
        assert getattr(spincorr, name) is getattr(module, name), name
