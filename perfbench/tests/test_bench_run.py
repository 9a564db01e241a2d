import run


def _round(*digests):
    return {"digests": list(digests)}


def test_expected_exit_one_counts_as_success(tmp_path):
    jobs = [{"id": "bad", "kind": "cli", "command": "spectrum", "mode": None,
             "level": 0, "expect": "invalid", "rows": 0}]
    refused = [(1, "", "error: [model]: unknown family 'x'\n")]
    assert run.check_round(jobs, refused, 0, str(tmp_path), str(tmp_path)) == {}
    accepted = [(0, "n,l,E_re,E_im,formula,admissible\n", "")]
    assert set(run.check_round(jobs, accepted, 0, str(tmp_path), str(tmp_path))) == {0}


def test_count_failed_per_execution():
    rounds = [_round("a", "b"), _round("a", "b"), _round("a", "x")]
    assert run.count_failed(rounds, ["a", "b"], {}) == 1
    bad = {0: "wrong"}
    assert run.count_failed(rounds, ["a", "b"], bad) == 4
    assert bad == {0: "wrong", 1: "output bytes differ between runs"}


def test_time_shares_by_kind():
    jobs = [{"command": "spectrum", "expect": "ok"}, {"command": "verify", "expect": "match"},
            {"command": "verify", "expect": "invalid"}]
    rounds = [{"job_s": [1.0, 2.0, 1.0]}, {"job_s": [1.0, 4.0, 1.0]}]
    assert run.time_shares(jobs, rounds) == {"invalid": 0.2, "spectrum": 0.2, "verify": 0.6}
