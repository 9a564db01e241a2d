from dataclasses import fields
from pathlib import Path

import pytest

from susyhier import (
    ConfigError,
    Mode,
    MorseGeneral,
    MorseNonPT,
    MorsePT1,
    MorsePT2,
    PoschlTeller,
    PoschlTellerPT,
    ZeroOmegaError,
    load_config,
    parse_complex_literal,
    parse_config,
)
from susyhier.cli import main

MINIMAL = """
[model]
family = morse_general
v1 = 25
v2 = 50
"""

FULL = """
# full configuration exercising every section
[model]
family = poschl_teller
v0 = 6.0
q = 1+0.5i
alpha = 2.0

[grid]
x_min = -4.0
x_max = 4.0
n_points = 801

[units]
hbar = 1.0
mass = 1.0
e_sq = 2.0

[run]
mode = self-consistent
l = 1
l_max = 3
n_max = 5
tol_abs = 1e-4
tol_imag = 1e-7
workers = 4
scan1_param = v0
scan1_component = re
scan1_start = 1.0
scan1_stop = 2.0
scan1_count = 5
"""


# ---------------------------------------------------------------------------
# complex literals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("2.5", 2.5 + 0j),
    ("-3i", -3j),
    ("1+2i", 1 + 2j),
    ("1-2i", 1 - 2j),
    (" 1 + 2 i ", 1 + 2j),
    ("2.5e-3i", 2.5e-3j),
    ("i", 1j),
    ("-0.5", -0.5 + 0j),
])
def test_complex_literal_accepts(text, expected):
    assert parse_complex_literal(text) == expected


@pytest.mark.parametrize("text", ["1+2j", "J", "", "abc", "1+2i+3i", "inf", "nani"])
def test_complex_literal_rejects(text):
    with pytest.raises(ConfigError):
        parse_complex_literal(text)


# ---------------------------------------------------------------------------
# whole-file parsing
# ---------------------------------------------------------------------------

def test_parse_full_config():
    cfg = parse_config(FULL)
    assert cfg.model == PoschlTeller(6.0, 1.0 + 0.5j, 2.0)
    assert (cfg.grid.x_min, cfg.grid.x_max, cfg.grid.n_points) == (-4.0, 4.0, 801)
    assert (cfg.units.hbar, cfg.units.mass, cfg.units.e_sq) == (1.0, 1.0, 2.0)
    assert cfg.mode is Mode.SELF_CONSISTENT
    assert (cfg.l, cfg.l_max, cfg.n_max, cfg.workers) == (1, 3, 5, 4)
    assert (cfg.tol_abs, cfg.tol_imag) == (1e-4, 1e-7)
    assert cfg.scan1 is not None and cfg.scan2 is None
    assert (cfg.scan1.param, cfg.scan1.component) == ("v0", "re")
    assert cfg.scan1.count == 5
    assert cfg.grid_given


def test_parse_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.model == MorseGeneral(25.0, 50.0, 1.0)  # alpha is optional
    assert (cfg.grid.x_min, cfg.grid.x_max, cfg.grid.n_points) == (-3.0, 30.0, 4000)
    assert (cfg.units.hbar, cfg.units.mass, cfg.units.e_sq) == (1.0, 0.5, 1.0)
    assert cfg.mode is Mode.PAPER_LITERAL
    assert (cfg.l, cfg.l_max, cfg.n_max, cfg.workers) == (0, 0, 8, 1)
    assert (cfg.tol_abs, cfg.tol_imag) == (1e-3, 1e-6)
    assert cfg.scan1 is None and cfg.scan2 is None
    assert not cfg.grid_given


def test_readme_example_config_parses(tmp_path, capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = [b.split("```", 1)[0] for b in readme.split("```ini\n")[1:]]
    assert len(blocks) == 2
    example, scan_example = blocks
    assert "[grid]                   # optional" in example
    cfg = parse_config(example)
    assert cfg.model == MorseGeneral(25.0, 50.0, 1.0)
    assert (cfg.grid.x_min, cfg.grid.x_max, cfg.grid.n_points) == (-3.0, 30.0, 4000)
    assert (cfg.units.hbar, cfg.units.mass, cfg.units.e_sq) == (1.0, 0.5, 1.0)
    assert (cfg.mode, cfg.n_max, cfg.tol_imag, cfg.workers) == (Mode.PAPER_LITERAL, 8, 1e-6, 1)
    scan_cfg = parse_config(scan_example)
    assert scan_cfg.model == PoschlTeller(6.0, 1.0)
    assert (scan_cfg.scan1.param, scan_cfg.scan1.stop, scan_cfg.scan2.param,
            scan_cfg.scan2.count) == ("v0", 10.5, "q", 10)
    path = tmp_path / "scan.ini"
    path.write_text(scan_example, encoding="utf-8")
    assert main(["scan", "--config", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[-1].startswith("# agreement: 100/100 ")


def test_inline_comments_after_headers_and_values():
    text = ("; a whole-line comment\n[model] # the well\nfamily = morse_general;c\n"
            "v1 = 25 # depth\nv2 = 50 ; second\n[grid] ; window\n  # indented\n"
            "n_points = 401#\n")
    cfg = parse_config(text)
    assert cfg.model == MorseGeneral(25.0, 50.0, 1.0)
    assert cfg.grid.n_points == 401
    with pytest.raises(ConfigError):  # a comment is not a value
        parse_config(text.replace("n_points = 401#", "n_points = #401"))


# family token, [model] lines, the model they build, its default window, and
# the kind of every [model] key the family takes
FAMILY_CASES = [
    ("morse_general", "v1 = 25\nv2 = 50\nalpha = 2", MorseGeneral(25, 50, 2), (-1.5, 15.0),
     {"v1": "complex", "v2": "complex", "alpha": "optional real"}),
    ("morse_nonpt", "d = 9\np = 2", MorseNonPT(9, 2), (-3.0, 30.0),
     {"d": "real", "p": "real"}),
    ("morse_pt1", "v1 = 16\nv2 = 12", MorsePT1(16, 12), (-20.0, 20.0),
     {"v1": "complex", "v2": "complex"}),
    ("morse_pt2", "omega = 1\nd = 1\nalpha = 2", MorsePT2(1, 1, 2), (-10.0, 10.0),
     {"omega": "real", "d": "real", "alpha": "optional real"}),
    ("poschl_teller", "v0 = 6\nq = 1", PoschlTeller(6, 1, 1), (-10.0, 10.0),
     {"v0": "complex", "q": "complex", "alpha": "optional real"}),
    ("poschl_teller_pt", "v0 = 4\nq = 0.5\nalpha = 2", PoschlTellerPT(4, 0.5, 2), (-5.0, 5.0),
     {"v0": "real", "q": "real", "alpha": "optional real"}),
]


@pytest.mark.parametrize("family,params,model,window", [case[:4] for case in FAMILY_CASES])
def test_family_default_grids(family, params, model, window):
    cfg = parse_config(f"[model]\nfamily = {family}\n{params}\n")
    assert cfg.model == model
    assert (cfg.grid.x_min, cfg.grid.x_max) == window
    assert cfg.grid.n_points == 4000


@pytest.mark.parametrize("family,params,model,window,keys", FAMILY_CASES)
def test_family_keys_follow_model_fields(tmp_path, capsys, family, params, model, window, keys):
    """The [model] keys, their kinds and which may be left out, pinned per family."""
    assert [f.name for f in fields(model)] == list(keys)
    given = dict(line.split(" = ") for line in params.splitlines())

    def parse(values):
        body = "".join(f"{k} = {v}\n" for k, v in values.items())
        return parse_config(f"[model]\nfamily = {family}\n{body}")

    for key, kind in keys.items():
        with_complex = {**given, key: "1+2i"}
        if kind == "complex":
            assert getattr(parse(with_complex).model, key) == 1 + 2j
        else:
            with pytest.raises(ConfigError, match="expected a real number"):
                parse(with_complex)
        without = {k: v for k, v in given.items() if k != key}
        if kind.startswith("optional"):
            assert getattr(parse(without).model, key) == getattr(type(model), key)
        else:
            with pytest.raises(ConfigError, match=f"requires {key}"):
                parse(without)
    path = tmp_path / "verify.ini"
    path.write_text(f"[model]\nfamily = {family}\n{params}\n[grid]\nn_points = 101\n",
                    encoding="utf-8")
    main(["verify", "--config", str(path)])
    assert f"\nfamily = {family}\n" in capsys.readouterr().out


def test_partial_grid_override():
    cfg = parse_config(MINIMAL + "\n[grid]\nn_points = 101\n")
    assert (cfg.grid.x_min, cfg.grid.x_max, cfg.grid.n_points) == (-3.0, 30.0, 101)
    assert cfg.grid_given


def test_mode_tokens():
    assert parse_config(MINIMAL + "\n[run]\nmode = paper-literal\n").mode is Mode.PAPER_LITERAL
    assert parse_config(MINIMAL + "\n[run]\nmode = paper_literal\n").mode is Mode.PAPER_LITERAL
    assert parse_config(MINIMAL + "\n[run]\nmode = self_consistent\n").mode \
        is Mode.SELF_CONSISTENT
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "\n[run]\nmode = selfconsistent\n")


# ---------------------------------------------------------------------------
# rejection paths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "[wellness]\nfamily = morse_general\n",                    # unknown section
    "[model]\nfamily = morse_general\nv1 = 25\nv2 = 50\n[model]\nv1 = 1\n",  # duplicate section
    "v1 = 25\n",                                               # key outside any section
    "[model]\nfamily morse_general\n",                         # missing '='
    "[model]\nfamily = morse_general\nv1 = 25\nv1 = 26\nv2 = 50\n",  # duplicate key
    "[model]\nv1 = 25\nv2 = 50\n",                             # missing family
    "[model]\nfamily = coulomb\n",                             # unknown family
    "[model]\nfamily = morse_nonpt\nd = 9\np = 2\nv1 = 25\n",  # wrong-family key
    "[model]\nfamily = morse_general\nv1 = 25\n",              # missing required v2
    "[model]\nfamily = morse_general\nv1 = 25\nv2 = fifty\n",  # malformed number
    "[model]\nfamily = morse_general\nv1 = 25\nv2 = 5j\n",     # wrong imaginary unit
    MINIMAL + "\n[grid]\nn_points = 1e3\n",                    # int slot with float
    MINIMAL + "\n[units]\nhbar = 1+2i\n",                      # imaginary in real slot
    MINIMAL + "\n[units]\nplanck = 1\n",                       # unknown key
    MINIMAL + "\n[run]\nl = -1\n",                             # negative level
    MINIMAL + "\n[run]\nworkers = 0\n",
    MINIMAL + "\n[run]\ntol_abs = 0\n",
    MINIMAL + "\n[run]\nscan1_param = v0\n",                   # incomplete scan axis
    MINIMAL + ("\n[run]\nscan1_param = alpha\nscan1_component = re\n"
               "scan1_start = 0\nscan1_stop = 1\nscan1_count = 2\n"),  # unscannable param
    MINIMAL + ("\n[run]\nscan1_param = v0\nscan1_component = re\n"
               "scan1_start = 0\nscan1_stop = 1\nscan1_count = 0\n"),  # empty axis
])
def test_bad_configs_rejected(text):
    with pytest.raises(ConfigError):
        parse_config(text)


def test_model_constructor_errors_pass_through():
    with pytest.raises(ZeroOmegaError):
        parse_config("[model]\nfamily = morse_pt2\nomega = 0\nd = 1\n")


def test_empty_config_rejected():
    with pytest.raises(ConfigError):
        parse_config("")


# ---------------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------------

def test_load_config_roundtrip(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(FULL, encoding="utf-8")
    cfg = load_config(str(p))
    assert cfg.model == PoschlTeller(6.0, 1.0 + 0.5j, 2.0)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.ini"))
