"""The command-line contract, held by a grammar-based fuzzer.

The README promises: every command exits 0, or 2 or 3 with exactly one
``error: ...`` or ``i/o error: ...`` line on standard error, no traceback,
no numpy warning and no output directory.  Configs are drawn from the
known keys with edge tokens, random shape lines and scenario lines, then
synthesized and imaged at a coarse grid; sample files are mutated one
field or row at a time, or cut to their header, and imaged; ``verify``
runs on small flag values and edge tokens, and may also exit 1 when a
check fails.  Examples are derandomized, so every run draws the same
inputs (Claessen and Hughes, ICFP 2000).
"""

import contextlib
import io
import os
import tempfile
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dsmscat.cli import main  # noqa: E402
from dsmscat.scenarios import SCENARIO_NAMES  # noqa: E402

EDGE = ("nan", "inf", "-inf", "1e400", "1e-300", "5e-324", "0", "-1", "1e308", "1e200")
WORDS = ("abc", "ex1", "close", "1+2j", "0x10", "--")
# ordinary values per key, kept small enough that an accepted config solves
# and images in well under a second
PLAIN = {
    "k": ("6.283185307179586", "3", "8"),
    "grid.min": ("-2", "-1", "-0.5"),
    "grid.max": ("2", "1", "0.5"),
    "grid.h": ("0.5", "0.25", "0.1"),
    "near.radius": ("4", "2", "10000"),
    "near.count": ("1", "2", "16", "50"),
    "far.count": ("1", "2", "16", "50"),
    "noise.epsilon": ("0", "0.2", "1"),
    "noise.seed": ("0", "7", "-3"),
    "incidents": ("0", "45", "90", "359.5"),
}
VARIANTS = ("close", "high-contrast", "two-incident")
# kind -> ordinary geometries, each in SHAPE_FIELDS order (a bar's angle in degrees)
SHAPES = {
    "square": (("0.02",), ("0.1",), ("0.2",)),
    "disk": (("0.02",), ("0.05",), ("0.1",)),
    "ring": (("0.2", "0.1"), ("0.3", "0.2")),
    "bar": (("0.4", "0.05", "0"), ("0.4", "0.05", "30"), ("0.2", "0.1", "90")),
}

CONTRACT = settings(derandomize=True, database=None, deadline=None, print_blob=False)


def _ordinary(key):
    """Values of one PLAIN key: one, or for the list keys up to three."""
    size = 3 if key in ("incidents", "noise.epsilon") else 1
    return st.lists(st.sampled_from(PLAIN[key]), min_size=1, max_size=size, unique=True)


@st.composite
def configs(draw):
    """An ordinary config (a scenario, or shape lines with incidents, and a
    few more keys), then zero to two of its tokens replaced by an edge
    token, a word or nothing, or dropped or repeated."""
    lines = []  # [key, tokens, separator]
    if draw(st.booleans()):
        lines.append(["scenario", [draw(st.sampled_from(SCENARIO_NAMES))], ","])
        if draw(st.integers(0, 3)) == 0:
            lines.append(["variant", [draw(st.sampled_from(VARIANTS))], ","])
    else:
        for _ in range(draw(st.integers(1, 2))):
            kind = draw(st.sampled_from(sorted(SHAPES)))
            center = [draw(st.sampled_from(("0", "0.3", "-0.5"))) for _ in range(2)]
            material = [draw(st.sampled_from(("eta", "nsq"))), draw(st.sampled_from(("1", "1.5", "1+50j", "10+10j")))]
            lines.append(["shape", [kind, *center, *draw(st.sampled_from(SHAPES[kind])), *material], " "])
        lines.append(["incidents", draw(_ordinary("incidents")), ","])
    for key in draw(st.lists(st.sampled_from(sorted(PLAIN)), max_size=4, unique=True)):
        if key not in (line[0] for line in lines):
            lines.append([key, draw(_ordinary(key)), ","])
    for _ in range(draw(st.sampled_from((0, 1, 1, 2)))):
        tokens = draw(st.sampled_from(lines))[1]
        index = draw(st.integers(0, len(tokens) - 1))
        action = draw(st.sampled_from(("replace", "replace", "replace", "replace", "replace", "drop", "repeat")))
        if action == "repeat":
            tokens.insert(index, tokens[index])
        elif action == "drop" and len(tokens) > 1:
            del tokens[index]
        else:
            tokens[index] = draw(st.sampled_from(EDGE + WORDS + ("",)))
    return "".join(f"{key} = {sep.join(tokens)}\n" for key, tokens, sep in draw(st.permutations(lines)))


def run(argv, outdir):
    """main(argv + --outdir) under warnings as errors; checks the contract
    and returns the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        rc = main([*argv, "--outdir", outdir])
    lines = err.getvalue().splitlines()
    if rc == 0:
        assert lines == [], (argv, lines)
    elif rc == 1 and argv[0] == "verify":  # a check failed, and the report is written
        assert len(lines) == 1 and lines[0].startswith("verification failed: "), (argv, lines)
    else:
        assert rc in (2, 3), (argv, rc, lines)
        assert len(lines) == 1 and lines[0].startswith(("error: ", "i/o error: ")), (argv, lines)
        assert not os.path.exists(outdir), (argv, lines)
    return rc


def check_config(text, root):
    """synthesize the config; on success, image each kind's first files with
    the config's grid keys, at pitch 0.5 unless it gives one."""
    cfg = os.path.join(root, "cfg.txt")
    with open(cfg, "w", encoding="utf-8") as handle:
        handle.write(text)
    data = os.path.join(root, "data")
    if run(["synthesize", "--config", cfg], data) != 0:
        return
    img_cfg = os.path.join(root, "img.txt")
    with open(img_cfg, "w", encoding="utf-8") as handle:
        handle.write(text if "grid.h" in text else text + "grid.h = 0.5\n")
    names = sorted(os.listdir(data))
    for kind in ("near", "far"):
        first = next(name for name in names if f"_{kind}_" in name)
        eps = first.rsplit("_eps", 1)[1]
        files = [os.path.join(data, name) for name in names if f"_{kind}_" in name and name.endswith("_eps" + eps)]
        run(["image", "--config", img_cfg, "--data", *files], os.path.join(root, f"img_{kind}"))


@settings(CONTRACT, max_examples=120)
@given(text=configs())
def test_configs_keep_the_contract(text):
    with tempfile.TemporaryDirectory() as root:
        check_config(text, root)


@pytest.fixture(scope="module")
def sample_files(tmp_path_factory):
    """The ex1 near and far sample files, as lists of lines."""
    root = tmp_path_factory.mktemp("contract")
    cfg = root / "cfg.txt"
    cfg.write_text("scenario = ex1\nnear.count = 8\nfar.count = 8\n")
    assert main(["synthesize", "--config", str(cfg), "--outdir", str(root / "data")]) == 0
    return {kind: (root / "data" / f"ex1_{kind}_inc0_eps0.csv").read_text().splitlines()
            for kind in ("near", "far")}


@st.composite
def mutations(draw, lines):
    """lines with one field of one row replaced, one row dropped or repeated,
    or every row after the header deleted."""
    lines = list(lines)
    row = draw(st.integers(0, len(lines) - 1))
    action = draw(st.sampled_from(("field", "field", "field", "drop", "repeat", "empty")))
    if action == "empty":
        del lines[1:]
    elif action == "drop":
        del lines[row]
    elif action == "repeat":
        lines.insert(row, lines[row])
    elif row == 0:
        fields = lines[0].split(" ")
        index = draw(st.integers(1, len(fields) - 1))
        name = fields[index].split("=")[0]
        fields[index] = f"{name}={draw(st.sampled_from(EDGE + WORDS + ('', '3', '45')))}"
        lines[0] = " ".join(fields)
    else:
        fields = lines[row].split(",")
        fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(EDGE + WORDS + ("", "4", "-1e-3", "90")))
        lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


@settings(CONTRACT, max_examples=150)
@given(data=st.data())
def test_mutated_sample_files_keep_the_contract(sample_files, data):
    text = data.draw(mutations(sample_files[data.draw(st.sampled_from(("near", "far")))]))
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "mutated.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        img_cfg = os.path.join(root, "img.txt")
        with open(img_cfg, "w", encoding="utf-8") as handle:
            handle.write("grid.h = 0.5\n")
        run(["image", "--config", img_cfg, "--data", path], os.path.join(root, "img"))


# verify flags: small values that run in well under a second, and edge tokens
FLAG_EDGE = ("0", "-1", "1000000000000", "10000000000000")
FLAGS = {"--nquad": ("16", "24", "32"), "--pairs": ("1", "2", "3"), "--seed": ("0", "7")}


@st.composite
def verify_argvs(draw):
    """verify with or without --dim, and each other flag absent, small or an edge token."""
    argv = ["verify"]
    dim = draw(st.sampled_from((None, "2", "3")))
    if dim is not None:
        argv += ["--dim", dim]
    for flag, plain in FLAGS.items():
        value = draw(st.sampled_from(plain + FLAG_EDGE + (None,)))
        if value is not None:
            argv += [flag, value]
    return argv


@settings(CONTRACT, max_examples=40)
@given(argv=verify_argvs())
def test_verify_flags_keep_the_contract(argv):
    with tempfile.TemporaryDirectory() as root:
        run(argv, os.path.join(root, "out"))
