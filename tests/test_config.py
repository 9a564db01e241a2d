import random
import re
from dataclasses import MISSING, fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from susyhier import (
    ConfigError,
    Grid,
    Mode,
    MorseGeneral,
    MorseNonPT,
    MorsePT1,
    MorsePT2,
    PoschlTeller,
    PoschlTellerPT,
    RunConfig,
    ScanAxis,
    SusyhierError,
    UnitSystem,
    ZeroOmegaError,
    load_config,
    parse_complex_literal,
    parse_config,
)
from susyhier.cli import main
from susyhier.potentials import FAMILIES

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
    ("+7", 7 + 0j),
    ("- 3", -3 + 0j),
])
def test_complex_literal_accepts(text, expected):
    assert parse_complex_literal(text) == expected


@pytest.mark.parametrize("text", [
    "1+2j", "J", "", "abc", "1+2i+3i", "inf", "nani",
    # blanks inside a number, digit separators, brackets and non-ASCII digits
    "2 5", "1 000", "1e- 5", "1 2i", "1_000", "(5)", "\uff11\uff12",
])
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
    assert (cfg.l, cfg.l_max, cfg.n_max) == (1, 3, 5)
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
    assert (cfg.l, cfg.l_max, cfg.n_max) == (0, 0, 8)
    assert (cfg.tol_abs, cfg.tol_imag) == (1e-3, 1e-6)
    assert cfg.scan1 is None and cfg.scan2 is None
    assert not cfg.grid_given


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = [b.split("```", 1)[0] for b in readme.split("```python\n")[1:]]
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("Verdict.MATCH True ")
    assert float(lines[0].split()[2]) < 1e-3
    assert lines[1] == "1004.2768461593814 -3.0"
    assert lines[2] == "SpectrumFormula.SELF_CONSISTENT ((-12.25-0j), True)"


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
    assert (cfg.mode, cfg.n_max, cfg.tol_imag) == (Mode.PAPER_LITERAL, 8, 1e-6)
    # the "[run]  # optional; defaults shown" block sets each [run] field that
    # has a default other than None, to that default
    run_block = example.split("\n[run]", 1)[1].split("\n\n", 1)[0]
    shown = [line.split("=", 1)[0].strip() for line in run_block.splitlines()[1:]]
    defaults = {f.name: f.default for f in fields(RunConfig)
                if f.default is not MISSING and f.default is not None}
    assert shown == list(defaults)
    assert {key: getattr(cfg, key) for key in shown} == defaults
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

BAD_CONFIGS = [
    ("[wellness]\nfamily = morse_general\n", "unknown section [wellness]"),
    ("[model]\nfamily = morse_general\nv1 = 25\nv2 = 50\n[model]\nv1 = 1\n",
     "duplicate section [model]"),
    ("v1 = 25\n", "key outside any [section]"),
    ("[model]\nfamily morse_general\n", "expected 'key = value'"),
    ("[model]\nfamily = morse_general\nv1 = 25\nv1 = 26\nv2 = 50\n", "duplicate key 'v1'"),
    ("[model]\nv1 = 25\nv2 = 50\n", "missing required key 'family'"),
    ("[model]\nfamily = coulomb\n", "unknown family 'coulomb'"),
    ("[model]\nfamily = morse_nonpt\nd = 9\np = 2\nv1 = 25\n", "key 'v1' is not valid"),
    ("[model]\nfamily = morse_general\nv1 = 25\n", "requires v2"),
    ("[model]\nfamily = morse_general\nv1 = 25\nv2 = fifty\n", "cannot parse 'fifty'"),
    ("[model]\nfamily = morse_general\nv1 = 25\nv2 = 5j\n", "imaginary unit is written 'i'"),
    (MINIMAL + "\n[grid]\nn_points = 1e3\n", "expected an integer, got '1e3'"),
    ("[model]\nfamily = morse_general\nv1 = 2 5\nv2 = 50\n", "cannot parse '2 5'"),
    ("[model]\nfamily = morse_general\nv1 = 1 000\nv2 = 50\n", "cannot parse '1 000'"),
    ("[model]\nfamily = morse_general\nv1 = 1_000\nv2 = 50\n", "cannot parse '1_000'"),
    ("[model]\nfamily = morse_general\nv1 = (5)\nv2 = 50\n", "cannot parse '(5)'"),
    (MINIMAL + "\n[grid]\nn_points = 4 000\n", "expected an integer, got '4 000'"),
    (MINIMAL + "\n[grid]\nn_points = 1_000\n", "expected an integer, got '1_000'"),
    (MINIMAL + "\n[grid]\nn_points = \uff11\uff12\n", "expected an integer"),  # full-width digits
    (MINIMAL + "\n[units]\nhbar = 1+2i\n", "expected a real number, got '1+2i'"),
    (MINIMAL + "\n[units]\nplanck = 1\n", "unknown key 'planck'"),
    (MINIMAL + "\n[run]\nl = -1\n", "must be non-negative"),
    (MINIMAL + "\n[run]\nworkers = 1\n", "unknown key 'workers'"),  # removed key
    (MINIMAL + "\n[run]\ntol_abs = 0\n", "tolerances must be positive"),
    (MINIMAL + "\n[run]\nscan1_param = v0\n", "incomplete scan axis"),
    (MINIMAL + ("\n[run]\nscan1_param = alpha\nscan1_component = re\n"
                "scan1_start = 0\nscan1_stop = 1\nscan1_count = 2\n"),
     "scan parameter must be v0 or q, got 'alpha'"),
    (MINIMAL + ("\n[run]\nscan1_param = v0\nscan1_component = re\n"
                "scan1_start = 0\nscan1_stop = 1\nscan1_count = 0\n"),
     "scan count must be >= 1"),
    ("[model]\n = 5\n", "line 2: missing key"),
]


@pytest.mark.parametrize("text, message", BAD_CONFIGS,
                         ids=[f"text{i}" for i in range(len(BAD_CONFIGS))])
def test_bad_configs_rejected(text, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
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


def test_load_config_accepts_byte_order_mark(tmp_path):
    p = tmp_path / "bom.ini"
    p.write_text(FULL, encoding="utf-8-sig")
    assert p.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_config(str(p)) == parse_config(FULL)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.ini"))


# ---------------------------------------------------------------------------
# fuzzed text
# ---------------------------------------------------------------------------

# each section's real keys, and values that suit a key or do not
_AXES = [[f"scan{i}_{f.name}" for f in fields(ScanAxis)] for i in (1, 2)]
_SECTION_KEYS = {
    "model": sorted({f.name for cls in FAMILIES.values() for f in fields(cls)}),
    "grid": [f.name for f in fields(Grid)],
    "units": [f.name for f in fields(UnitSystem)],
    "run": [f.name for f in fields(RunConfig) if f.default not in (MISSING, None)],
}
_ALL_KEYS = sorted({key for keys in _SECTION_KEYS.values() for key in keys}
                   | {"family", *_AXES[0], *_AXES[1], "grid_given", "scan1"})
_WORDS = {"family": sorted(FAMILIES), "mode": ["paper-literal", "self_consistent", "x"],
          "param": ["v0", "q", "alpha"], "component": ["re", "im"]}
_NUMBERS = ["0", "1", "-1", "3", "8", "16", "257", "2.5", "-10", "1e-3"]
_ODD = ["1e400", "nan", "1+2i", "-i", "2j", "1.5.2", "", *_NUMBERS, *sorted(FAMILIES)]
# text on one line: any character but a control character or a line break
_TEXT = st.text(st.characters(blacklist_categories=("Cc", "Zl", "Zp")), max_size=16)


@st.composite
def _config_texts(draw):
    """A [model] section, and maybe [grid], [units] and [run], of real keys with
    suited or arbitrary values, in any order and mixed with arbitrary lines."""
    # one drawn seed picks the structure, so only the drawn text shrinks
    rnd = random.Random(draw(st.integers(0, 2**32)))

    def line(key):
        roll = rnd.random()
        value = (rnd.choice(_WORDS.get(key.rsplit("_", 1)[-1], _NUMBERS)) if roll < 0.85
                 else rnd.choice(_ODD) if roll < 0.93 else draw(_TEXT))
        return f"{key} = {value}"

    family = rnd.choice(sorted(FAMILIES))
    keys = {"model": [f.name for f in fields(FAMILIES[family])]}
    for name in ("grid", "units", "run"):
        if rnd.random() < 0.6:
            keys[name] = rnd.sample(_SECTION_KEYS[name], rnd.randint(0, 3))
    if "run" in keys:  # a scan axis is five keys, so add whole axes
        keys["run"] += [key for axis in _AXES if rnd.random() < 0.6 for key in axis]
    for name in keys:
        while rnd.random() < 0.1:  # a key of another family or section
            keys[name].append(rnd.choice(_ALL_KEYS))
        if rnd.random() < 0.1:
            keys[name] = keys[name][:-1]
    chunks = [[f"[{name}]", *map(line, sorted(set(ks), key=ks.index))]
              for name, ks in keys.items()]
    chunks[0].insert(1, f"family = {family}" if rnd.random() < 0.9 else line("family"))
    for prefix in ("", "# "):  # an arbitrary line, a comment
        if rnd.random() < 0.2:
            chunks.append([prefix + draw(_TEXT)])
    rnd.shuffle(chunks)
    return "\n".join(line for chunk in chunks for line in chunk)


@settings(max_examples=400, deadline=None)
@given(_config_texts())
def test_parse_config_raises_only_package_errors(text):
    """Real section names, keys and values mixed with arbitrary lines either
    parse or raise an error of the package, never anything else."""
    try:
        parse_config(text)
    except SusyhierError:
        pass
