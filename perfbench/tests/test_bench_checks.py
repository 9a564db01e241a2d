import contextlib
import io

import numpy as np
import pytest

import checks

# reference levels sorted by (Re, Im); positions 1, 2 and 4, 5 are conjugate pairs
COARSE = np.array([-9.0, -6.0 - 2.0j, -6.0 + 2.0j, -3.0, -1.0 - 1.0j, -1.0 + 1.0j])
FINE = np.array([-9.5, -6.2 - 2.1j, -6.2 + 2.1j, -3.3, -1.1 - 1.2j, -1.1 + 1.2j])


def _rich(i, j=None):
    """(4 fine[i] - coarse[j]) / 3, j = i by default."""
    return (4.0 * FINE[i] - COARSE[i if j is None else j]) / 3.0


def test_index_wise_combination_passes():
    nums = [_rich(i) for i in range(4)]
    assert checks.richardson_mismatch(nums[::-1], COARSE, FINE, 4) is None


def test_conjugate_partners_may_swap_on_either_grid():
    crossed = [_rich(0), _rich(1, 2), _rich(2, 1), _rich(3)]
    assert checks.richardson_mismatch(crossed, COARSE, FINE, 4) is None
    # a pair that straddles the cut at k: the program may keep either partner
    assert checks.richardson_mismatch([_rich(i) for i in range(4)] + [_rich(5, 4)],
                                      COARSE, FINE, 5) is None


def test_levels_that_are_not_partners_fail():
    mispaired = [_rich(0), _rich(1, 0), _rich(2), _rich(3)]
    assert checks.richardson_mismatch(mispaired, COARSE, FINE, 4) is not None


def test_a_value_given_twice_fails():
    twice = [_rich(0), _rich(1), _rich(1), _rich(3)]
    assert checks.richardson_mismatch(twice, COARSE, FINE, 4) is not None
    both_crossed = [_rich(0), _rich(1, 2), _rich(1, 2), _rich(3)]
    assert checks.richardson_mismatch(both_crossed, COARSE, FINE, 4) is not None


def test_a_dropped_level_replaced_by_level_k_fails():
    dropped = [_rich(0), _rich(1), _rich(2), _rich(4)]
    assert checks.richardson_mismatch(dropped, COARSE, FINE, 4) is not None


def test_a_value_off_by_more_than_the_tolerance_fails():
    nums = [_rich(i) for i in range(4)]
    nums[3] += 1e-6
    assert checks.richardson_mismatch(nums, COARSE, FINE, 4) is not None


@pytest.fixture(scope="module")
def complex_verify(tmp_path_factory):
    """A small morse_pt1 verify run: its config path and stdout."""
    import susyhier.cli as cli

    cfg = tmp_path_factory.mktemp("cv") / "v.ini"
    cfg.write_text("[model]\nfamily = morse_pt1\nv1 = 25\nv2 = 50\n"
                   "\n[grid]\nx_min = -20\nx_max = 20\nn_points = 201\n"
                   "\n[run]\nn_max = 3\n", encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["verify", "--config", str(cfg)]) == 0
    return str(cfg), out.getvalue()


def test_program_output_matches_the_dense_reference(complex_verify):
    path, stdout = complex_verify
    assert checks.check_complex_verify(stdout, path) is None


def test_a_duplicated_program_value_fails(complex_verify):
    path, stdout = complex_verify
    lines = stdout.splitlines(keepends=True)
    unmatched = [i for i, ln in enumerate(lines) if ln.startswith("# unmatched numeric")]
    lines[unmatched[-1]] = lines[unmatched[0]]
    assert checks.check_complex_verify("".join(lines), path) is not None
