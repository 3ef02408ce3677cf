import json
import math
import os
import re
import subprocess
import sys

import pytest

import sphex
from sphex import cli
from sphex.arrangement import arrangement_to_json, params_of, params_to_json
from conftest import (
    embedded_lens,
    equilateral,
    gap_fixture,
    lens_trio,
    tetrahedron,
)


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def tri_file(tmp_path):
    return write(tmp_path, "tri.json", arrangement_to_json(equilateral()))


@pytest.fixture
def gap_file(tmp_path):
    return write(tmp_path, "gap.json", arrangement_to_json(gap_fixture()))


@pytest.fixture
def tetra_file(tmp_path):
    return write(tmp_path, "tetra.json", arrangement_to_json(tetrahedron()))


@pytest.fixture
def lens3_file(tmp_path):
    return write(tmp_path, "lens3.json", arrangement_to_json(lens_trio()))


def run(capsys, argv):
    code = cli.main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_check_pass(tri_file, capsys):
    code, out, err = run(capsys, ["check", "--input", tri_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "sphex/1"
    assert payload["command"] == "check"
    assert payload["h1"] is True
    assert payload["h2"] is True
    assert payload["indeterminate"] == []
    assert len(payload["subsets"]) == 7


def test_check_lists_degraded_pivots(tri_file, tmp_path, capsys):
    """Centres 1e-7 apart make B(0 1 2) ~ 2e-14 a degraded pivot; the
    report and the check JSON name it, and a regular triangle names
    none."""
    near = sphex.from_centers_radii([[0.0, 0.0], [1e-7, 0.0], [0.5, 1.0]],
                                    [1.0, 1.0, 1.0])
    flagged = sphex.check_hypotheses(near).pivot_warnings
    assert "B(0 1 2; 0 1 2)" in flagged and flagged == sorted(flagged)
    path = write(tmp_path, "near.json", arrangement_to_json(near))
    _, out, _ = run(capsys, ["check", "--input", path])
    assert json.loads(out)["pivot_warnings"] == flagged
    assert sphex.check_hypotheses(equilateral()).pivot_warnings == []
    _, out, _ = run(capsys, ["check", "--input", tri_file])
    assert json.loads(out)["pivot_warnings"] == []


def test_check_gap_passes_via_h1_prime(gap_file, capsys):
    code, out, _ = run(capsys, ["check", "--input", gap_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["h1"] is False
    assert payload["h1_prime"] is True


def test_check_disjoint_fails(tmp_path, capsys):
    import sphex as sx

    a = sx.from_centers_radii([[0, 0], [9, 0], [0, 9]], [1.0, 1.0, 1.0])
    path = write(tmp_path, "far.json", arrangement_to_json(a))
    code, out, _ = run(capsys, ["check", "--input", path])
    assert code == 2
    assert json.loads(out)["h1"] is False


def test_check_near_tangent_indeterminate(tmp_path, capsys):
    import sphex as sx

    a = sx.from_centers_radii([[0.0, 0.0], [2.0 - 5e-13, 0.0], [1.0, 1.2]],
                              [1.0, 1.0, 1.0])
    path = write(tmp_path, "near.json", arrangement_to_json(a))
    code, out, _ = run(capsys, ["check", "--input", path])
    assert code == 3
    payload = json.loads(out)
    assert [1, 2] in payload["indeterminate"]


def test_volume_closed_chamber(lens3_file, capsys):
    code, out, _ = run(capsys, ["volume", "--input", lens3_file,
                                "--chamber", "--+"])
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is True
    assert payload["chamber"] == "--+"
    assert payload["value"] == pytest.approx(1.227944820579281, rel=1e-12)


def test_volume_chamber_equals_syntax(lens3_file, capsys):
    code1, out1, _ = run(capsys, ["volume", "--input", lens3_file,
                                  "--chamber=--+"])
    code2, out2, _ = run(capsys, ["volume", "--input", lens3_file,
                                  "--chamber", "--+"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_volume_mc_byte_determinism(tetra_file, capsys):
    argv = ["volume", "--input", tetra_file, "--chamber", "----",
            "--samples", "20000", "--seed", "5"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["exact"] is False
    assert payload["samples"] == 20000


def test_volume_reports_method(lens3_file, tetra_file, capsys):
    _, out, _ = run(capsys, ["volume", "--input", lens3_file,
                             "--chamber", "--+"])
    assert json.loads(out)["method"] == "closed"
    _, out, _ = run(capsys, ["volume", "--input", tetra_file,
                             "--samples", "20000"])
    assert json.loads(out)["method"] == "conditional-mc"


def test_volume_reports_fallback_reason(lens3_file, tmp_path, capsys):
    _, out, _ = run(capsys, ["volume", "--input", lens3_file,
                             "--chamber", "--+"])
    assert json.loads(out)["fallback_reason"] is None
    # three disks that do not meet: the closed form refuses H1
    path = tmp_path / "apart.json"
    path.write_text(json.dumps(arrangement_to_json(equilateral(0.5))))
    _, out, _ = run(capsys, ["volume", "--input", str(path),
                             "--chamber", "---", "--samples", "1000"])
    payload = json.loads(out)
    assert payload["method"] == "conditional-mc"
    assert payload["fallback_reason"].startswith(
        "closed form unavailable: HypothesisError")


def test_volume_seed_changes_mc(tetra_file, capsys):
    base = ["volume", "--input", tetra_file, "--chamber", "----",
            "--samples", "20000"]
    _, out1, _ = run(capsys, base + ["--seed", "1"])
    _, out2, _ = run(capsys, base + ["--seed", "2"])
    assert json.loads(out1)["value"] != json.loads(out2)["value"]


def test_volume_formats(lens3_file, tmp_path, capsys):
    code, out, _ = run(capsys, ["volume", "--input", lens3_file,
                                "--chamber", "--+", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[:2] == ["chamber", "value"]
    assert lines[1].startswith("--+,")

    code, out, _ = run(capsys, ["volume", "--input", lens3_file,
                                "--chamber", "--+", "--format", "text"])
    assert code == 0
    assert "chamber --+" in out

    dest = tmp_path / "result.json"
    code, out, _ = run(capsys, ["volume", "--input", lens3_file,
                                "--chamber", "--+", "--out", str(dest)])
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["value"] == pytest.approx(
        1.227944820579281, rel=1e-12)


def test_volume_all_plus_without_gap(tri_file, capsys):
    # the regular triangle has no bounded all-plus component; its volume
    # is legitimately zero
    code, out, _ = run(capsys, ["volume", "--input", tri_file,
                                "--chamber", "+++",
                                "--samples", "10000"])
    assert code == 0
    assert json.loads(out)["value"] == 0.0


def test_identity_thmII_hypothesis_failure(tmp_path, capsys):
    import sphex as sx

    a = sx.from_centers_radii([[0, 0], [9, 0], [0, 9]], [1.0, 1.0, 1.0])
    path = write(tmp_path, "far2.json", arrangement_to_json(a))
    code, out, _ = run(capsys, ["identity", "--input", path,
                                "--which", "thmII", "--samples", "1000"])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "HypothesisError"


def test_identity_thmI_refuses_without_h1(tmp_path, capsys):
    import numpy as np
    from conftest import jitter_arrangement

    gen = np.random.default_rng(5)
    a = [jitter_arrangement(gen, 3) for _ in range(3)][-1]
    path = write(tmp_path, "no_h1.json", arrangement_to_json(a))
    code, out, _ = run(capsys, ["identity", "--input", path,
                                "--which", "thmI", "--samples", "1000"])
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "HypothesisError"
    assert err["message"].startswith("H1 fails")


def test_identity_thmI(tri_file, capsys):
    code, out, _ = run(capsys, ["identity", "--input", tri_file,
                                "--which", "thmI"])
    assert code == 0
    payload = json.loads(out)
    assert payload["which"] == "thmI"
    assert payload["count"] == payload["pass_count"] == 1
    rep = payload["reports"][0]
    assert rep["pass"] is True
    assert rep["name"] == "theorem_I_i"


def test_identity_thmI_other_chamber(lens3_file, capsys):
    code, out, _ = run(capsys, ["identity", "--input", lens3_file,
                                "--which", "thmI", "--chamber", "--+"])
    assert code == 0
    assert json.loads(out)["pass_count"] == 1


def test_identity_thmII_and_decomposition(gap_file, capsys):
    for which in ("thmII", "decomposition"):
        code, out, _ = run(capsys, ["identity", "--input", gap_file,
                                    "--which", which])
        assert code == 0, which
        assert json.loads(out)["pass_count"] == 1


def test_identity_lemma5_points(tri_file, capsys):
    code, out, _ = run(capsys, ["identity", "--input", tri_file,
                                "--which", "lemma5", "--points", "5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 5
    assert payload["pass_count"] == 5


def test_identity_lemma5_is_scale_free(tmp_path, capsys):
    """The README triangle passes at every scale from 1e-6 to 1e6."""
    tri = equilateral()
    for k in range(-6, 7):
        s = 10.0 ** k
        path = write(tmp_path, f"tri{k}.json",
                     {"n": 2, "centers": (tri.centers * s).tolist(),
                      "radii": (tri.radii * s).tolist()})
        code, out, _ = run(capsys, ["identity", "--input", path,
                                    "--which", "lemma5", "--points", "20"])
        assert code == 0, k
        assert json.loads(out)["pass_count"] == 20, k


def test_identity_wrong_chamber_length(tri_file, capsys):
    """A chamber of the wrong length is a usage error, not a traceback."""
    for chamber in ("-", "----"):
        code, out, err = run(capsys, ["identity", "--input", tri_file,
                                      "--which", "thmI",
                                      f"--chamber={chamber}"])
        assert code == 1, chamber
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err


def test_identity_prop4(tri_file, capsys):
    code, out, _ = run(capsys, ["identity", "--input", tri_file,
                                "--which", "prop4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 6  # three singletons, three pairs
    names = {r["name"] for r in payload["reports"]}
    assert "prop4_residue_1" in names
    assert "prop4_residue_23" in names


def test_identity_prop6(tri_file, capsys):
    code, out, _ = run(capsys, ["identity", "--input", tri_file,
                                "--which", "prop6"])
    assert code == 0
    assert json.loads(out)["count"] == 3


def test_identity_prop6_refuses_without_h1(gap_file, capsys):
    code, out, _ = run(capsys, ["identity", "--input", gap_file,
                                "--which", "prop6"])
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "HypothesisError"
    assert err["message"].startswith("H1 fails")


def test_identity_prop6_tangent_exit4(tmp_path, capsys):
    import sphex as sx

    a = sx.from_centers_radii([[1.0, 1.5], [0.0, 0.0], [2.0, 0.0]],
                              [1.0, 1.0, 1.0])
    path = write(tmp_path, "tangent.json", arrangement_to_json(a))
    code, out, err = run(capsys, ["identity", "--input", path,
                                  "--which", "prop6"])
    assert code == 4
    # structured error payloads travel on the selected output channel
    assert json.loads(out)["error"]["type"] == "TangencyError"


def test_identity_gaussbonnet(tetra_file, capsys):
    code, out, _ = run(capsys, ["identity", "--input", tetra_file,
                                "--which", "gaussbonnet",
                                "--samples", "150000"])
    assert code == 0
    rep = json.loads(out)["reports"][0]
    assert rep["name"] == "gauss_bonnet_n3"
    assert rep["pass"] is True


def test_identity_csv_format(tri_file, capsys):
    code, out, _ = run(capsys, ["identity", "--input", tri_file,
                                "--which", "prop6", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[0] == "name"
    assert len(lines) == 4


def test_variation_selected_params(tri_file, capsys):
    code, out, _ = run(capsys, ["variation", "--input", tri_file,
                                "--params", "r1,d12", "--eps", "1e-5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["model"] == "euclidean"
    assert [r["parameter"] for r in payload["rows"]] == ["r1", "d12"]
    assert all(r["pass"] for r in payload["rows"])


def test_variation_comma_form_params(tri_file, capsys):
    code, out, _ = run(capsys, ["variation", "--input", tri_file,
                                "--params", "r1,d1,3", "--eps", "1e-5"])
    assert code == 0
    assert [r["parameter"] for r in json.loads(out)["rows"]] == ["r1", "d13"]


@pytest.mark.parametrize("token", ["r12", "d14", "d11", "r0", "d123"])
def test_variation_unknown_param_exits_1(tri_file, capsys, token):
    code, out, err = run(capsys, ["variation", "--input", tri_file,
                                  "--params", token, "--eps", "1e-5"])
    assert code == 1 and out == ""
    assert "Traceback" not in err
    assert repr(token) in err and "r1, r2, r3, d12, d13, d23" in err


def test_variation_all_params(tri_file, capsys):
    code, out, _ = run(capsys, ["variation", "--input", tri_file,
                                "--eps", "1e-5"])
    assert code == 0
    assert len(json.loads(out)["rows"]) == 6


def test_variation_chamber_option(lens3_file, capsys):
    code, out, _ = run(capsys, ["variation", "--input", lens3_file,
                                "--chamber", "--+", "--params", "d12",
                                "--eps", "1e-5"])
    assert code == 0
    assert json.loads(out)["rows"][0]["pass"] is True


def test_variation_noise_exit4(tri_file, capsys):
    code, out, _ = run(capsys, ["variation", "--input", tri_file,
                                "--params", "r1", "--eps", "1e-12"])
    assert code == 4
    row = json.loads(out)["rows"][0]
    assert "error" in row


def test_variation_unit_sphere(tetra_file, capsys):
    code, out, _ = run(capsys, ["variation", "--input", tetra_file,
                                "--model", "unit-sphere",
                                "--params", "a12", "--eps", "1e-2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["model"] == "unit-sphere"
    assert payload["rows"][0]["parameter"] == "a12"
    assert payload["rows"][0]["pass"] is True


def test_variation_reports_method(tri_file, tetra_file, capsys):
    code, out, _ = run(capsys, ["variation", "--input", tri_file,
                                "--params", "r1", "--eps", "1e-5"])
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["method"] == "closed" and row["fallback_reason"] is None
    code, out, _ = run(capsys, ["variation", "--input", tetra_file,
                                "--model", "unit-sphere", "--params", "a01",
                                "--eps", "3e-2"])
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["method"] == "closed" and row["fallback_reason"] is None
    code, out, _ = run(capsys, ["variation", "--input", tetra_file,
                                "--params", "d12", "--eps", "1e-2",
                                "--samples", "50000"])
    assert json.loads(out)["rows"][0]["method"] == "conditional-mc"


def test_params_form_input(tmp_path, capsys):
    path = write(tmp_path, "params.json",
                 params_to_json(params_of(equilateral())))
    code, out, _ = run(capsys, ["volume", "--input", path,
                                "--chamber", "---"])
    assert code == 0
    assert json.loads(out)["exact"] is True


def test_usage_errors(tmp_path, tri_file, capsys):
    code, _, err = run(capsys, ["volume"])  # missing --input
    assert code == 1
    code, _, err = run(capsys, ["volume", "--input", tri_file,
                                "--samples", "-2"])
    assert code == 1
    code, _, err = run(capsys, ["volume", "--input",
                                str(tmp_path / "nope.json")])
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["check", "--input", str(bad)])
    assert code == 1
    code, _, err = run(capsys, ["identity", "--input", tri_file,
                                "--which", "fermat"])
    assert code == 1
    code, _, err = run(capsys, ["volume", "--input", tri_file,
                                "--chamber", "--"])  # wrong length
    assert code == 1
    incomplete = tmp_path / "no_n.json"
    incomplete.write_text(
        '{"centers": [[0, 0], [1, 0], [0, 1]], "radii": [1, 1, 1]}')
    code, _, err = run(capsys, ["check", "--input", str(incomplete)])
    assert code == 1
    assert 'missing field "n"' in err
    # non-finite numbers, which Python's json reads, in both input forms
    forms = {
        "centers": '{"n": 2, "centers": [[0, 0], [1.5, %s], [0.75, 1.3]], '
                   '"radii": [1, 1, 1]}',
        "radii": '{"n": 2, "centers": [[0, 0], [1.5, 0], [0.75, 1.3]], '
                 '"radii": [1, %s, 1]}',
        "radii_sq": '{"n": 2, "radii_sq": [1, %s, 1], "dist_sq": '
                    '{"1,2": 2.25, "1,3": 2.25, "2,3": 2.25}}',
        "dist_sq": '{"n": 2, "radii_sq": [1, 1, 1], "dist_sq": '
                   '{"1,2": %s, "1,3": 2.25, "2,3": 2.25}}',
    }
    for field, text in forms.items():
        for bad in ("NaN", "Infinity", "-Infinity"):
            path = tmp_path / "nonfinite.json"
            path.write_text(text % bad)
            code, out, err = run(capsys, ["volume", "--input", str(path)])
            assert code == 1 and out == "", (field, bad)
            assert f"{field} must be finite" in err, (field, bad)


def test_embedded_lens_values_through_cli(tmp_path, capsys):
    path = write(tmp_path, "lens.json",
                 arrangement_to_json(embedded_lens()))
    code, out, _ = run(capsys, ["volume", "--input", path,
                                "--chamber", "---",
                                "--samples", "400000", "--seed", "3"])
    assert code == 0
    payload = json.loads(out)
    want = 2 * math.pi / 3 - math.sqrt(3) / 2
    assert abs(payload["value"] - want) <= 3 * payload["std_error"]


def test_import_loads_no_scipy():
    """scipy is a test extra, so a cold `import sphex` must not load it,
    nor numpy.polynomial."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sphex.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, sphex; "
            "sys.exit(1 if 'scipy' in sys.modules else "
            "2 if 'numpy.polynomial' in sys.modules else 0)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert proc.returncode == 0


def test_package_source_does_not_mention_scipy():
    """scipy serves the tests as an oracle only: no module of the
    package imports it, not even on demand."""
    pkg = os.path.dirname(os.path.abspath(sphex.__file__))
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                assert not re.search(r"\bscipy\b", fh.read()), name
