import os

import pytest

import jobs
from susyhier import parse_config

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_gives_identical_configs(workload):
    assert jobs.generate(workload, 7) == jobs.generate(workload, 7)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_other_seed_gives_other_configs(workload):
    assert jobs.generate(workload, 7)[1] != jobs.generate(workload, 8)[1]


def test_scan_seed_zero_is_the_committed_lattice():
    _, configs = jobs.generate("scan_lattice", 0)
    with open(os.path.join(ROOT, "tests", "data", "scan_lattice.ini"), encoding="utf-8") as fh:
        committed = parse_config(fh.read())
    assert parse_config(configs["scan"]) == committed


@pytest.mark.parametrize("seed", range(1, 30))
def test_scan_lattice_keeps_real_column_and_step(seed):
    cfg = parse_config(jobs.generate("scan_lattice", seed)[1]["scan"])
    assert (cfg.scan1.count, cfg.scan2.count) == (10, 10)
    assert cfg.scan2.start == 0.0
    assert (cfg.scan2.stop - cfg.scan2.start) / 9 >= 0.1 - 1e-12


def test_analytic_mix_shape():
    job_list, configs = jobs.generate("analytic_mix", 3)
    assert len(job_list) == jobs.ANALYTIC_JOBS
    assert sorted(configs) == sorted(j["id"] for j in job_list)
    kinds = {j["command"] for j in job_list}
    assert kinds == {"spectrum", "wavefunction", "verify", "hierarchy", "riccati_residual"}
    assert sum(j["expect"] == "invalid" for j in job_list) == 30
    families = {text.split("family = ")[1].split("\n")[0] for text in configs.values()}
    assert set(jobs.FAMILIES) <= families
