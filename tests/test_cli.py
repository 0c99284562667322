"""Config validation and end-to-end runs of the command-line tools.

CLI tests call ``cli.main`` in process with artifact paths under tmp_path
and then parse what was written back in.
"""
import csv
import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from doslab import cli, config, percolation
from doslab.config import SCHEMAS, config_digest, space_from, validate
from doslab.errors import ConfigError


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


FREE_CHAIN = {"hopping": {"kind": "adjacency"}}


# ---------------------------------------------------------------------------
# config validation


def test_unknown_key_reports_dotted_path():
    with pytest.raises(ConfigError, match="unknown key") as err:
        validate({"space": {"kind": "lattice", "dd": 3}},
                 SCHEMAS["space-ladder"])
    assert err.value.path == "space.dd"


def test_missing_required_key():
    with pytest.raises(ConfigError, match="missing required key") as err:
        validate({"p": 0.5}, SCHEMAS["percolate"])
    assert err.value.path == "L"


def test_type_and_bound_errors():
    with pytest.raises(ConfigError, match="expected an integer"):
        validate({"mmax": True}, SCHEMAS["counterexample"])
    with pytest.raises(ConfigError, match="must be <= 1") as err:
        validate({"L": 10, "p": 1.5}, SCHEMAS["percolate"])
    assert err.value.path == "p"
    with pytest.raises(ConfigError, match="must be one of lattice, f2"):
        validate({"space": {"kind": "tree"}, "kmax": 3},
                 SCHEMAS["space-ladder"])


def test_array_items_are_validated_with_index():
    cfg = {"space": {"kind": "lattice"}, "hamiltonian": FREE_CHAIN,
           "g": {"kind": "one"}, "radii": [10.0, "x"]}
    with pytest.raises(ConfigError, match="expected a number") as err:
        validate(cfg, SCHEMAS["dos"])
    assert err.value.path == "radii[1]"


def test_defaults_are_filled_in():
    cfg = validate({"L": 8, "p": 0.5}, SCHEMAS["percolate"])
    assert cfg["d"] == 2
    assert cfg["seed"] == 0
    assert cfg["threshold"] == 0.05
    assert cfg["tmax"] is None and cfg["out"] is None


def test_inf_norm_is_parsed():
    cfg = validate({"space": {"kind": "lattice", "d": 2, "p": "inf"},
                    "kmax": 3}, SCHEMAS["space-ladder"])
    assert cfg["space"]["p"] == math.inf
    digest = config_digest(cfg)
    assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")


def test_digest_ignores_artifact_paths():
    base = {"L": 8, "p": 0.5}
    a = validate(base, SCHEMAS["percolate"])
    b = validate({**base, "out": "x.json", "sample_out": "y.bin"},
                 SCHEMAS["percolate"])
    assert config_digest(a) == config_digest(b)
    c = validate({"L": 8, "p": 0.6}, SCHEMAS["percolate"])
    assert config_digest(a) != config_digest(c)


def test_nested_table_paths():
    cfg = {"space": {"kind": "lattice"}, "hamiltonian": FREE_CHAIN,
           "g": {"kind": "one"}, "r_outer": 64.0,
           "tolerance": {"relative_gap": -0.1}}
    with pytest.raises(ConfigError) as err:
        validate(cfg, SCHEMAS["theorem-check"])
    assert err.value.path == "tolerance.relative_gap"


def test_domain_errors_are_wrapped_with_the_path():
    # validation sees a well-formed array; the length clash surfaces only
    # when the space object is built, and still names the config field
    cfg = validate({"space": {"kind": "lattice", "d": 1, "base": [1, 2]},
                    "kmax": 3}, SCHEMAS["space-ladder"])
    with pytest.raises(ConfigError) as err:
        space_from(cfg["space"])
    assert err.value.path == "space"


# the enum strings the schemas know, every key of every table, and one
# valid config per schema for the property test below to mutate
_ENUMS = ("lattice", "f2", "adjacency", "laplacian", "kernel", "none", "zero",
          "periodic", "iid_uniform", "gaussian", "bump", "polynomial", "one",
          "default", "lattice_power", "cube", "ball", "lacunary", "inf")
_KEYS = sorted({key for fields in SCHEMAS.values() for key in fields} | {
    "kind", "d", "p", "base", "hopping", "potential", "offsets", "amplitudes",
    "values", "low", "high", "seed", "center", "sigma", "halfwidth", "coeffs",
    "relative_gap", "condition_c", "shape", "schedule"})
_OPERATOR = {"space": {"kind": "lattice"}, "hamiltonian": FREE_CHAIN,
             "g": {"kind": "one"}}
_VALID = {
    "space-ladder": {"space": {"kind": "lattice"}, "kmax": 5},
    "space-check-c": {"space": {"kind": "lattice"}},
    "percolate": {"L": 10, "p": 0.5},
    "dos": {**_OPERATOR, "radii": [1.0]},
    "ids": {"space": {"kind": "lattice"}, "hamiltonian": FREE_CHAIN,
            "radius": 1.0},
    "dixmier": {**_OPERATOR, "r_outer": 2.0},
    "theorem-check": {**_OPERATOR, "r_outer": 2.0},
    "counterexample": {},
    "vp-trace": {"radius": 2.0},
    "equivariance": {**_OPERATOR, "shift": [1], "radii": [1.0]},
    "ergodic": {**_OPERATOR, "realizations": 2,
                "folner": {"shape": "cube", "schedule": [1]}},
    "folner": {"folner": {"shape": "cube", "schedule": [1]}},
}
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 400, 10 ** 400)
    | st.integers(2 ** 1023, 10 ** 400).map(lambda v: v * (-1) ** v)
    | st.floats() | st.sampled_from(_ENUMS) | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS), kids, max_size=3),
    max_leaves=10)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), schema=st.sampled_from(sorted(SCHEMAS)))
def test_validate_maps_any_json_to_a_dict_or_a_config_error(data, schema):
    """A valid config with the value at one drawn key path (new keys
    included) replaced by arbitrary JSON validates or raises ConfigError;
    nothing else escapes."""
    validate(_VALID[schema], SCHEMAS[schema])  # the unmutated config is valid
    cfg = json.loads(json.dumps(_VALID[schema]))
    node = cfg
    while True:
        key = data.draw(st.sampled_from(sorted(node) + _KEYS))
        if not (isinstance(node.get(key), dict) and data.draw(st.booleans())):
            break
        node = node[key]
    node[key] = data.draw(_JSON)
    try:
        out = validate(cfg, SCHEMAS[schema])
    except ConfigError:
        return
    assert set(out) == set(SCHEMAS[schema])


def test_polynomial_profile_needs_coefficients():
    with pytest.raises(ConfigError, match="missing required key") as err:
        validate({**_VALID["dos"], "g": {"kind": "polynomial"}},
                 SCHEMAS["dos"])
    assert err.value.path == "g.coeffs"


def test_each_kind_takes_exactly_its_makers_keywords():
    """A kind's keys besides ``kind`` are the keyword parameters of the
    constructor it names; hopping makers also take the built potential."""
    makers = config._makers()
    assert set(makers) == set(config.KINDS)
    for path, kinds in config.KINDS.items():
        assert set(makers[path]) == set(kinds), path
        for kind, fields in kinds.items():
            params = set(inspect.signature(makers[path][kind]).parameters)
            if path == "hamiltonian.hopping":
                params.discard("potential")
            assert params == set(fields), (path, kind)


# ---------------------------------------------------------------------------
# artifact round trips


def test_counterexample_table_and_determinism(tmp_path):
    out = tmp_path / "blocks.csv"
    assert cli.main(["counterexample", "--mmax", "4",
                     "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["m", "n", "cesaro", "log_cesaro"]
    assert len(rows) == 10
    assert rows[0][:3] == ["0", "1", "1/1"]
    assert rows[2][:3] == ["1", "4", "3/4"]
    assert rows[9][:3] == ["4", "512", "171/512"]
    meta = json.loads((tmp_path / "blocks.csv.meta.json").read_text())
    assert meta["tool"] == "doslab" and meta["mmax"] == 4
    assert len(meta["config_sha256"]) == 64
    again = tmp_path / "again.csv"
    assert cli.main(["counterexample", "--mmax", "4",
                     "--out", str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()


def test_space_ladder_csv(tmp_path, capsys):
    out = tmp_path / "ladder.csv"
    rc = cli.main(["space", "ladder", "--space", "lattice", "--d", "2",
                   "--p", "1", "--kmax", "6", "--out", str(out)])
    assert rc == 0
    assert "6 levels, 85 points" in capsys.readouterr().out
    header, rows = read_csv(out)
    assert header == ["k", "r_k", "ball_count", "shell_count", "ratio"]
    assert [int(r[2]) for r in rows] == [2 * k * k + 2 * k + 1
                                         for k in range(1, 7)]


def test_space_check_c_verdict(tmp_path, capsys):
    out = tmp_path / "cc.json"
    rc = cli.main(["space", "check-c", "--space", "f2", "--kmax", "12",
                   "--out", str(out)])
    assert rc == 0  # a fail verdict is still a completed run
    assert "verdict: fail" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert data["verdict"] == "fail"
    assert 2.5 < data["tail_mean_ratio"] < 3.5


@pytest.mark.parametrize("command", [["space", "ladder", "--kmax", "5"],
                                     ["space", "check-c"]])
def test_space_kind_defaults_to_lattice(tmp_path, command):
    """Without ``space`` in the file or on the command line, both space
    commands run on the default lattice, as with ``--space lattice``."""
    out = tmp_path / "bare"
    assert cli.main(command + ["--out", str(out)]) == 0
    named = tmp_path / "named"
    assert cli.main(command + ["--space", "lattice", "--out", str(named)]) == 0
    assert out.read_bytes() == named.read_bytes()


def test_vp_trace_json(tmp_path):
    out = tmp_path / "vp.json"
    rc = cli.main(["vp-trace", "--d", "1", "--radius", "20000",
                   "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["ball_volume"] == 2.0
    assert data["relative_error"] < 1e-4
    assert data["terms"] == 40001


def run_in_child(*argv):
    """Run ``doslab argv`` in a child process; return the finished process
    and the child's peak resident size in MB.

    The child reports the high-water mark of its own address space
    (VmHWM).  Its RUSAGE_SELF ru_maxrss would not do: exec records the
    high-water mark of the address space it replaces, which is the
    spawning test process's own."""
    code = ("import sys\n"
            "from doslab import cli\n"
            "rc = cli.main(sys.argv[1:])\n"
            "with open('/proc/self/status') as fh:\n"
            "    print([ln.split()[1] for ln in fh if ln.startswith('VmHWM:')][0])\n"
            "sys.exit(rc)")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", code, *argv],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    return out, int(out.stdout.split()[-1]) / 1024.0  # VmHWM is in KiB


@pytest.mark.parametrize("d, radius", [(2, 1500), (3, 150)])
def test_vp_trace_peak_memory(d, radius):
    """The l_inf weight series (9.0 M terms for d = 2, 27.3 M for d = 3)
    is held as one run per level."""
    out, peak_mb = run_in_child("vp-trace", "--d", str(d), "--p", "inf",
                                "--radius", str(radius))
    assert out.returncode == 0
    assert peak_mb < 80.0


def test_folner_peak_memory():
    """Folner tables come from closed-form counts; no set is enumerated
    and no Minkowski sum is built."""
    out, peak_mb = run_in_child("folner", "--shape", "ball", "--d", "2",
                                "--schedule", "10,20,40,80")
    assert out.returncode == 0, out.stderr
    assert peak_mb < 120.0


_THREAD_RUNS = (
    # one dense block, n = 1,457
    ("ids", {"space": {"kind": "f2"}, "hamiltonian": FREE_CHAIN,
             "radius": 6}, "ids.csv"),
    # two tridiagonal parity blocks with vectors, n = 2,201
    ("dixmier", {"space": {"kind": "lattice", "d": 1},
                 "hamiltonian": {**FREE_CHAIN, "potential": {
                     "kind": "periodic", "values": [0.0, 1.0]}},
                 "g": {"kind": "bump", "center": 0.0, "halfwidth": 1.5},
                 "r_outer": 1100.0}, "dixmier.json"))


def _numbers(name: str, data: bytes) -> dict:
    """The values of one artifact by CSV column or JSON key path (list
    positions dropped): numbers as floats, anything else as text."""
    if name.endswith(".csv"):
        header, *rows = csv.reader(data.decode().splitlines())
        return {key: [float(v) for v in col]
                for key, col in zip(header, zip(*rows))}
    found = {}

    def walk(value, path):
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, f"{path}.{key}")
        elif isinstance(value, list):
            for item in value:
                walk(item, path)
        else:
            number = isinstance(value, (int, float)) and not isinstance(
                value, bool)
            found.setdefault(path, []).append(
                float(value) if number else repr(value))
    walk(json.loads(data), "")
    return found


def test_thread_count_moves_values_by_rounding_only(tmp_path):
    """Bytes are stable for a fixed config and BLAS thread count: a rerun
    at 2 threads writes the same files.  Across thread counts the BLAS
    reorders its sums, so the values agree to 1e-12 of each column's or
    key's largest value, and everything else is equal."""
    for command, payload, name in _THREAD_RUNS:
        files = {}
        for run in ("1", "2", "2 again"):
            out_dir = tmp_path / f"{command} {run}"
            out_dir.mkdir()
            cfg = write_config(tmp_path, {**payload,
                                          "out": str(out_dir / name)},
                               f"{command} {run}.json")
            child, _ = run_in_child(command, "--config", cfg,
                                    "--threads", run.split()[0])
            assert child.returncode == 0, child.stderr
            files[run] = {p.name: p.read_bytes()
                          for p in sorted(out_dir.iterdir())}
        assert files["2"] == files["2 again"]
        assert files["1"].keys() == files["2"].keys()
        for artifact, data in files["1"].items():
            one, two = (_numbers(artifact, data),
                        _numbers(artifact, files["2"][artifact]))
            assert one.keys() == two.keys()
            for key, want in one.items():
                got = two[key]
                if any(isinstance(v, str) for v in want):
                    assert got == want, (artifact, key)
                    continue
                scale = max(np.abs(want).max(), np.finfo(float).tiny)
                np.testing.assert_allclose(got, want, rtol=0.0,
                                           atol=1e-12 * scale,
                                           err_msg=f"{artifact} {key}")


def test_large_chain_dos_allocates_no_dense_block(tmp_path):
    """An iid chain of n = 100,101 sites has no parity fold, so it is one
    tridiagonal block whose eigenvectors would take 1e10 entries.  A
    gaussian g takes the Chebyshev route and needs none; a bump g needs
    the eigen route, which is refused before dstevd allocates them."""
    out = tmp_path / "dos.csv"
    chain = {"space": {"kind": "lattice", "d": 1},
             "hamiltonian": {"hopping": {"kind": "adjacency"},
                             "potential": {"kind": "iid_uniform"}},
             "radii": [25000.0, 50000.0], "margin": 50.0, "out": str(out)}
    cfg = write_config(tmp_path, {**chain, "g": {
        "kind": "gaussian", "center": 0.3, "sigma": 0.7}})
    run, peak_mb = run_in_child("dos", "--config", cfg)
    assert run.returncode == 0, run.stderr
    meta = json.loads((tmp_path / "dos.csv.meta.json").read_text())
    assert meta["solvers"] == [["tridiagonal", 100101]]
    assert [r[0] for r in meta["diagonal_routes"]] == ["chebyshev"]
    assert peak_mb < 300.0
    cfg = write_config(tmp_path, {**chain, "g": {
        "kind": "bump", "center": 0.0, "halfwidth": 1.5}}, "bump.json")
    run, peak_mb = run_in_child("dos", "--config", cfg)
    assert run.returncode == 1
    assert run.stderr == ("doslab: error: eigenvectors of a block needs "
                          "10020210201 entries, entry budget is 250000000\n")
    assert peak_mb < 300.0


def test_percolate_artifacts(tmp_path):
    out, growth = tmp_path / "perc.json", tmp_path / "growth.csv"
    sample_path = tmp_path / "sample.bin"
    rc = cli.main(["percolate", "--d", "2", "--L", "60", "--p", "0.6",
                   "--seed", "2", "--tmax", "15", "--out", str(out),
                   "--growth-out", str(growth),
                   "--sample-out", str(sample_path)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["cluster_size"] == 3333
    assert data["open_fraction"] == pytest.approx(0.598587570621469)
    assert data["plateau_stat"] == pytest.approx(0.295382, abs=1e-5)
    assert data["condition_c"]["verdict"] == "fail"  # small box, noisy tail
    header, rows = read_csv(growth)
    assert header == ["t", "ball_count", "normalized"]
    assert len(rows) == 15
    assert rows[0] == ["1", "4", "4.0"]
    sample = percolation.load_sample(str(sample_path))
    assert percolation.sample_digest(sample) == data["sample_sha256"]
    # identical config, different path: artifact bytes must not change
    rerun = tmp_path / "rerun.json"
    cli.main(["percolate", "--d", "2", "--L", "60", "--p", "0.6",
              "--seed", "2", "--tmax", "15", "--out", str(rerun)])
    assert rerun.read_bytes() == out.read_bytes()


def test_dos_csv_matches_library(tmp_path):
    from doslab.dos import dos_approximant
    from doslab.hamiltonians import adjacency
    from doslab.spaces import Lattice
    from doslab.spectral import gaussian
    out = tmp_path / "dos.csv"
    cfg = write_config(tmp_path, {
        "space": {"kind": "lattice", "d": 1},
        "hamiltonian": FREE_CHAIN,
        "g": {"kind": "gaussian", "center": 0.3, "sigma": 0.7},
        "radii": [40.0, 80.0], "margin": 20.0, "out": str(out)})
    assert cli.main(["dos", "--config", cfg]) == 0
    header, rows = read_csv(out)
    assert header == ["r", "ball_count", "average"]
    est = dos_approximant(Lattice(1), adjacency(), gaussian(0.3, 0.7),
                          [40.0, 80.0], margin=20.0)
    assert [float(r[2]) for r in rows] == pytest.approx(list(est.values),
                                                        rel=1e-15)
    meta = json.loads((tmp_path / "dos.csv.meta.json").read_text())
    assert meta["tail_mean"] == pytest.approx(est.tail_mean)
    assert meta["diverged"] is False
    # the free chain at R = 100 folds into two tridiagonal parity blocks,
    # too small for the Chebyshev route of gaussian(0.3, 0.7)
    assert meta["solvers"] == [["tridiagonal", 101], ["tridiagonal", 100]]
    assert meta["diagonal_routes"] == [["eigh", 101], ["eigh", 100]]


def test_dos_ball_count_is_the_spaces_ball(tmp_path):
    """4e-10 short of 7 the chain's l_2 ball ends at 6 (key 48 < 49), in
    the DOS table as in the space's own ladder."""
    out = tmp_path / "dos.csv"
    cfg = write_config(tmp_path, {
        "space": {"kind": "lattice"}, "hamiltonian": FREE_CHAIN,
        "g": {"kind": "one"}, "radii": [6.9999999996], "out": str(out)})
    assert cli.main(["dos", "--config", cfg]) == 0
    assert read_csv(out)[1] == [["6.9999999996", "13", "1.0"]]


def test_periodic_potential_takes_a_grid(tmp_path):
    """A d = 2 periodic potential is a nested array; the CLI table of the
    l_1 checkerboard is the library's, byte for byte."""
    from doslab.dos import dos_approximant
    from doslab.hamiltonians import adjacency, periodic_potential
    from doslab.spaces import Lattice
    from doslab.spectral import gaussian
    out = tmp_path / "dos.csv"
    checkerboard = [[0, 1], [1, 0]]
    cfg = write_config(tmp_path, {
        "space": {"kind": "lattice", "d": 2, "p": 1},
        "hamiltonian": {"hopping": {"kind": "adjacency"},
                        "potential": {"kind": "periodic",
                                      "values": checkerboard}},
        "g": {"kind": "gaussian", "center": 0.5, "sigma": 0.7},
        "radii": [2, 3, 5], "margin": 4, "out": str(out)})
    assert cli.main(["dos", "--config", cfg]) == 0
    est = dos_approximant(Lattice(2, 1.0),
                          adjacency(periodic_potential(checkerboard)),
                          gaussian(0.5, 0.7), [2.0, 3.0, 5.0], margin=4.0)
    assert read_csv(out)[1] == [[repr(r), str(c), repr(v)]
                                for r, c, v in est.rows()]


def test_periodic_values_validate_as_a_rectangular_grid():
    def values(v):
        cfg = validate({**_VALID["dos"], "hamiltonian": {
            "hopping": {"kind": "none"},
            "potential": {"kind": "periodic", "values": v}}}, SCHEMAS["dos"])
        return cfg["hamiltonian"]["potential"]["values"]
    # a flat array validates as before, so its config digest stays put
    assert values([0, 1]) == [0.0, 1.0]
    assert values([[0, 1], [1, 0.5]]) == [[0.0, 1.0], [1.0, 0.5]]
    for bad, path, message in [
            ([[0, 1], [1]], "values[1]", "needs at least 2 entries"),
            ([[0, 1], 1], "values[1]", "expected an array"),
            ([0, [1]], "values[1]", "expected a number"),
            ([], "values", "needs at least 1 entries"),
            (0, "values", "expected an array"),
            ([[[0]] * 2] * 2 + [0], "values[2]", "expected an array")]:
        with pytest.raises(ConfigError, match=message) as err:
            values(bad)
        assert err.value.path == "hamiltonian.potential." + path
    deep = 0
    for _ in range(2000):
        deep = [deep]
    with pytest.raises(ConfigError, match="nests deeper than 32 arrays"):
        values(deep)
    deep = 0
    for _ in range(32):
        deep = [deep]
    assert np.shape(values(deep)) == (1,) * 32


@pytest.mark.parametrize("command, extra", [
    ("dos", {}), ("equivariance", {"shift": [1]})])
def test_library_warning_is_one_stderr_line(tmp_path, capsys, command, extra):
    out = tmp_path / "out.csv"
    cfg = write_config(tmp_path, {
        "space": {"kind": "lattice", "d": 1}, "hamiltonian": FREE_CHAIN,
        "g": {"kind": "gaussian", "center": 0.3, "sigma": 0.7},
        "radii": [10.0, 20.0], "margin": 0, "out": str(out), **extra})
    assert cli.main([command, "--config", cfg]) == 0
    captured = capsys.readouterr()
    # the one margin-0 warning prints as one line on either command
    assert captured.err == ("doslab: warning: margin 0: ball averages touch "
                            "the truncation boundary and pick up edge "
                            "contamination\n")
    assert captured.out.endswith(f"wrote {out} (2 rows)\n")


def test_ids_csv(tmp_path):
    out = tmp_path / "ids.csv"
    cfg = write_config(tmp_path, {
        "space": {"kind": "lattice", "d": 1},
        "hamiltonian": FREE_CHAIN, "radius": 60.0, "out": str(out)})
    assert cli.main(["ids", "--config", cfg]) == 0
    header, rows = read_csv(out)
    assert header == ["energy", "fraction"]
    assert len(rows) == 121
    assert float(rows[-1][1]) == 1.0
    fracs = np.array([float(r[1]) for r in rows])
    assert np.all(np.diff(fracs) > 0)
    meta = json.loads((tmp_path / "ids.csv.meta.json").read_text())
    assert meta["solvers"] == [["tridiagonal", 61], ["tridiagonal", 60]]


def test_dixmier_json(tmp_path):
    out = tmp_path / "dix.json"
    cfg = write_config(tmp_path, {
        "space": {"kind": "lattice", "d": 1},
        "hamiltonian": FREE_CHAIN,
        "g": {"kind": "gaussian", "center": 0.0, "sigma": 1.0},
        "r_outer": 1024.0, "out": str(out)})
    assert cli.main(["dixmier", "--config", cfg]) == 0
    data = json.loads(out.read_text())
    assert data["slope"] == pytest.approx(0.465259, abs=1e-4)
    assert data["window"] == [4, 512]
    assert data["measurability"]["verdict"] == "strong-measurable"
    # a gaussian is nonzero on the whole spectrum of both parity blocks
    assert data["solvers"] == [["tridiagonal", 1025], ["tridiagonal", 1024]]
    assert data["product_rank"] == 2049


def test_theorem_check_exit_codes(tmp_path):
    """Exit 0 when the identity holds within tolerance, 2 when the same
    run misses an unreachable tolerance; the artifact records both."""
    out = tmp_path / "check.json"
    base = {"space": {"kind": "lattice", "d": 1},
            "hamiltonian": FREE_CHAIN,
            "g": {"kind": "gaussian", "center": 0.0, "sigma": 1.0},
            "r_outer": 1024.0, "margin": 30.0, "out": str(out)}
    loose = write_config(tmp_path, {
        **base, "tolerance": {"relative_gap": 1.0}}, "loose.json")
    assert cli.main(["theorem-check", "--config", loose]) == 0
    data = json.loads(out.read_text())
    assert data["passed"] is True
    assert data["relative_gap"] < 0.01
    assert data["condition_c_verdict"] == "pass"
    assert data["modulated_ok"] is True
    assert data["solvers"] == [["tridiagonal", 1025], ["tridiagonal", 1024]]
    assert data["product_rank"] == 2049
    tight = write_config(tmp_path, {
        **base, "tolerance": {"relative_gap": 1e-8}}, "tight.json")
    assert cli.main(["theorem-check", "--config", tight]) == 2
    data = json.loads(out.read_text())
    assert data["passed"] is False
    assert data["lhs_slope"] == pytest.approx(0.465259, abs=1e-4)


LATTICE_POWER_CHAIN = {
    "space": {"kind": "lattice", "d": 1}, "hamiltonian": FREE_CHAIN,
    "g": {"kind": "gaussian", "center": 0.0, "sigma": 1.0},
    "weight": {"kind": "lattice_power"}, "r_outer": 1024.0}


def _lattice_power_operator():
    from doslab.hamiltonians import adjacency, lattice_weight
    from doslab.spaces import Lattice
    from doslab.spectral import gaussian
    space = Lattice(1)
    ladder = space.ladder_to_radius(1024.0)
    w = lattice_weight(space, ladder)
    return (space, adjacency(), gaussian(0.0, 1.0), w, 1024.0), ladder


def test_dixmier_lattice_power_weight_matches_library(tmp_path):
    from doslab.dos import dixmier_lhs
    out = tmp_path / "dix.json"
    cfg = write_config(tmp_path, {**LATTICE_POWER_CHAIN, "out": str(out)})
    assert cli.main(["dixmier", "--config", cfg]) == 0
    data = json.loads(out.read_text())
    want = dixmier_lhs(*_lattice_power_operator()[0])
    assert data["slope"] == want.value
    assert data["lam_values"] == want.lam_values.tolist()
    assert data["measurability"]["half_slopes"] == list(want.half_slopes)
    assert data["product_rank"] == want.product_rank


def test_theorem_check_lattice_power_weight_matches_library(tmp_path):
    from doslab.dos import main_theorem_check
    out = tmp_path / "check.json"
    cfg = write_config(tmp_path, {**LATTICE_POWER_CHAIN, "margin": 30.0,
                                  "out": str(out)})
    rc = cli.main(["theorem-check", "--config", cfg])
    operator, ladder = _lattice_power_operator()
    want = main_theorem_check(*operator, margin=30.0, ladder=ladder)
    assert rc == (0 if want.passed(0.1) else 2)
    data = json.loads(out.read_text())
    assert data["lhs_slope"] == want.lhs_value
    assert data["weight_slope"] == want.weight_fit.slope
    assert data["dos_tail_mean"] == want.rhs_limit
    assert data["relative_gap"] == want.relative_gap
    assert data["modulated_gap_slope"] == want.modulated_gap_slope


@pytest.mark.parametrize("command", ["dixmier", "theorem-check"])
def test_lattice_power_weight_on_f2_is_one_error_line(tmp_path, capsys,
                                                      command):
    cfg = write_config(tmp_path, {
        **LATTICE_POWER_CHAIN, "space": {"kind": "f2"}, "r_outer": 6.0})
    assert cli.main([command, "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        "doslab: error: weight: lattice weight requires a lattice space\n")


def test_equivariance_csv_aligned_shift(tmp_path):
    out = tmp_path / "eq.csv"
    cfg = write_config(tmp_path, {
        "space": {"kind": "lattice", "d": 1},
        "hamiltonian": {"hopping": {"kind": "adjacency"},
                        "potential": {"kind": "periodic",
                                      "values": [0.0, 1.0]}},
        "g": {"kind": "gaussian", "center": 0.3, "sigma": 0.7},
        "shift": [2], "radii": [40.0, 80.0], "margin": 20.0,
        "out": str(out)})
    assert cli.main(["equivariance", "--config", cfg]) == 0
    header, rows = read_csv(out)
    assert header == ["r", "average", "shifted_average", "abs_diff"]
    assert [r[3] for r in rows] == ["0.0", "0.0"]
    meta = json.loads((tmp_path / "eq.csv.meta.json").read_text())
    assert meta["max_diff"] == 0.0 and meta["nonincreasing"] is True


def test_ergodic_artifacts_and_seed_override(tmp_path):
    from doslab.ergodic import cubes, ergodic_average
    from doslab.hamiltonians import adjacency, iid_potential
    from doslab.spaces import Lattice
    from doslab.spectral import gaussian
    out, table = tmp_path / "erg.json", tmp_path / "erg.csv"
    cfg = write_config(tmp_path, {
        "space": {"kind": "lattice", "d": 1},
        "hamiltonian": {"hopping": {"kind": "adjacency"},
                        "potential": {"kind": "iid_uniform",
                                      "low": 0.0, "high": 1.0}},
        "g": {"kind": "gaussian", "center": 0.3, "sigma": 0.7},
        "folner": {"shape": "cube", "d": 1, "schedule": [2, 4, 8]},
        "realizations": 3, "margin": 4.0,
        "out": str(out), "csv_out": str(table)})
    rc = cli.main(["ergodic", "--config", cfg, "--seed", "7"])
    assert rc == 0
    data = json.loads(out.read_text())
    want = ergodic_average(Lattice(1),
                           adjacency(iid_potential(0.0, 1.0, seed=0)),
                           gaussian(0.3, 0.7), cubes(1, [2, 4, 8]),
                           realizations=3, seed=7, margin=4.0)
    assert data["mean"] == pytest.approx(want.mean, rel=1e-15)
    assert data["seeds"] == list(want.seeds)
    assert data["window_size"] == 17
    assert data["solvers"] == [["tridiagonal", 25]]
    assert data["diagonal_routes"] == [[["eigh", 25]]] * 3
    header, rows = read_csv(table)
    assert header == ["realization", "seed", "average", "z_score"]
    assert len(rows) == 3


def test_folner_lacunary_table(tmp_path):
    out = tmp_path / "folner.csv"
    rc = cli.main(["folner", "--shape", "lacunary", "--schedule", "1,2,3,4",
                   "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["n", "cardinality", "deviation_max", "tempered_ratio"]
    assert rows[0] == ["1", "2", "1.0", ""]
    assert rows[1] == ["2", "4", "0.5", "1.25"]
    assert rows[3] == ["4", "16", "0.125", "1.4375"]
    meta = json.loads((tmp_path / "folner.csv.meta.json").read_text())
    assert meta["c_estimate"] == 1.4375 and meta["shape"] == "lacunary"


def test_flags_set_one_key_and_keep_the_rest(tmp_path, capsys):
    # --schedule sets folner.schedule; the file's folner.shape survives
    out = tmp_path / "folner.csv"
    cfg = write_config(tmp_path, {"folner": {"shape": "lacunary",
                                             "schedule": [9]}}, "fol.json")
    assert cli.main(["folner", "--config", cfg, "--schedule", "1,2,3,4",
                     "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [r[0] for r in rows] == ["1", "2", "3", "4"]
    assert rows[3] == ["4", "16", "0.125", "1.4375"]
    # --d sets space.d; the file's space.p survives
    out = tmp_path / "ladder.csv"
    cfg = write_config(tmp_path, {"space": {"kind": "lattice", "p": 1}},
                       "l1.json")
    assert cli.main(["space", "ladder", "--config", cfg, "--d", "2",
                     "--kmax", "3", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [r[2] for r in rows] == ["5", "13", "25"]  # l1 balls in Z^2
    # f2 takes no d, so --d on an f2 file is refused
    cfg = write_config(tmp_path, {"space": {"kind": "f2"}, "kmax": 12},
                       "f2.json")
    assert cli.main(["space", "check-c", "--config", cfg, "--d", "1"]) == 1
    assert "space.d: unknown key 'd'" in capsys.readouterr().err
    # a flag cannot reach into a value that is not an object
    cfg = write_config(tmp_path, {"space": "f2", "kmax": 12}, "bad.json")
    assert cli.main(["space", "check-c", "--config", cfg, "--d", "1"]) == 1
    assert "space: expected an object" in capsys.readouterr().err


def test_config_digest_is_pinned(tmp_path):
    # flag-only run; space.kind falls back to lattice
    out = tmp_path / "flags.csv"
    assert cli.main(["space", "ladder", "--d", "2", "--p", "1", "--kmax", "6",
                     "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "flags.csv.meta.json").read_text())
    assert meta["config_sha256"] == (
        "0e2375128e87a97b771caf4adbbde8cc333f274e55a880fc5be263ae59aa1f69")
    out = tmp_path / "inf.csv"
    cfg = write_config(tmp_path, {"space": {"kind": "lattice", "d": 2,
                                            "p": "inf"}, "kmax": 5})
    assert cli.main(["space", "ladder", "--config", cfg,
                     "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "inf.csv.meta.json").read_text())
    assert meta["config_sha256"] == (
        "2ca8597c71388d7fe6329485de9f13f18bcf794ee8903ea675abd2476d2dfcef")


# ---------------------------------------------------------------------------
# failure modes


def test_invalid_json_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    assert cli.main(["counterexample", "--config", str(bad)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_unknown_config_key_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, {"bogus": 1})
    assert cli.main(["counterexample", "--config", cfg]) == 1
    assert "unknown key 'bogus'" in capsys.readouterr().err


def test_missing_required_key_exits_one(capsys):
    assert cli.main(["percolate", "--p", "0.5"]) == 1
    assert "L: missing required key" in capsys.readouterr().err


def test_unknown_command_and_bad_flag_exit_one(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        cli.main(["percolate", "--L", "abc"])
    assert err.value.code == 1
    # --seed exists only where the schema has a seed
    with pytest.raises(SystemExit) as err:
        cli.main(["dos", "--seed", "1"])
    assert err.value.code == 1
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_bare_invocations_print_usage(capsys):
    assert cli.main([]) == 1
    assert "COMMAND" in capsys.readouterr().out
    assert cli.main(["space"]) == 1
    assert "space {ladder,check-c}" in capsys.readouterr().err


def test_failed_precondition_exits_one(tmp_path, capsys):
    # the free-group ball ratios violate the averaging hypothesis, which
    # must abort the check rather than produce a gap
    cfg = write_config(tmp_path, {
        "space": {"kind": "f2"}, "hamiltonian": FREE_CHAIN,
        "g": {"kind": "gaussian"}, "r_outer": 12.0})
    assert cli.main(["theorem-check", "--config", cfg]) == 1
    assert "ratios stabilise above 1" in capsys.readouterr().err


@pytest.mark.parametrize("command, payload, message", [
    ("dos", {"space": {"kind": "lattice"}, "radii": [20, 10]},
     "radii: must be strictly increasing"),
    ("dixmier", {"space": {"kind": "lattice"}, "r_outer": 50},
     "101 eigenvalues"),
    ("dixmier", {"space": {"kind": "lattice"}, "r_outer": 50,
                 "window": [2, 100000]},
     "beyond the 101 terms"),
    ("dos", {"space": {"kind": "f2"}, "radii": [1, 2, 3]},
     "radii: needs a free-group ball of radius 53"),
    ("dos", {"space": {"kind": "lattice", "d": 2},
             "hamiltonian": {"hopping": {"kind": "adjacency"},
                             "potential": {"kind": "periodic",
                                           "values": [0.0, 1.0]}},
             "radii": [2, 4], "margin": 1},
     "periodic potential has period (2,), the lattice has d = 2"),
    ("ergodic", {"space": {"kind": "lattice", "d": 1},
                 "hamiltonian": {"hopping": {"kind": "adjacency"},
                                 "potential": {"kind": "iid_uniform"}},
                 "folner": {"shape": "cube", "d": 1, "schedule": [2, 4]},
                 "realizations": 2, "index": 5},
     "index 5 outside the folner schedule of 2 sets"),
    ("dos", {"space": {"kind": "lattice"}, "radii": [10 ** 400]},
     "radii[0]: outside the float range"),
    ("dos", {"space": {"kind": "lattice", "d": 10 ** 20}, "radii": [2]},
     "space.d: must be <= 32"),
    ("dos", {"space": {"kind": "lattice", "base": [2 ** 70]}, "radii": [2]},
     "space.base[0]: must be <= 1048575"),
    ("dos", {"space": {"kind": "lattice", "d": 2, "p": 1e308},
             "radii": [2], "margin": 1},
     "p = 1e+308: l_p lengths leave the float range"),
    ("dos", {"space": {"kind": "lattice"}, "radii": [1e308], "margin": 1e308},
     "radius must be finite"),
    ("dos", {"space": {"kind": "lattice"},
             "hamiltonian": {"hopping": {"kind": "kernel",
                                         "offsets": [[1], [-1]],
                                         "amplitudes": [1e308, 1e308]}},
             "radii": [10, 20, 30], "margin": 5},
     "operator entries overflow float64"),
    ("dos", {"space": {"kind": "lattice"},
             "hamiltonian": {"hopping": {"kind": "adjacency"},
                             "potential": {"kind": "iid_uniform",
                                           "low": -1e308, "high": 1e308}},
             "radii": [10, 20, 30], "margin": 5},
     "operator entries overflow float64"),
    ("dos", {"space": {"kind": "lattice"},
             "g": {"kind": "polynomial", "coeffs": [0, 0, 1e308]},
             "radii": [10, 20, 40], "margin": 10},
     "polynomial g is not finite"),
    ("dos", {"space": {"kind": "lattice", "d": 2},
             "hamiltonian": {"hopping": {"kind": "kernel",
                                         "offsets": [[1], [-1]],
                                         "amplitudes": [1.0, 1.0]}},
             "radii": [2, 4], "margin": 1},
     "hamiltonian: kernel offset (1,) has 1 components, the lattice has "
     "d = 2"),
    ("dos", {"space": {"kind": "f2"},
             "hamiltonian": {"hopping": {"kind": "kernel",
                                         "offsets": [[1], [-1]],
                                         "amplitudes": [1.0, 1.0]}},
             "radii": [2, 4], "margin": 1},
     "hamiltonian: kernel hopping needs a lattice space, not 'cayley_f2'"),
    ("dos", {"space": {"kind": "f2"},
             "hamiltonian": {"hopping": {"kind": "adjacency"},
                             "potential": {"kind": "periodic",
                                           "values": [0.0, 1.0]}},
             "radii": [2, 4], "margin": 1},
     "hamiltonian: periodic potential requires a lattice space"),
    ("dos", {"space": {"kind": "lattice", "d": 2},
             "hamiltonian": {"hopping": {"kind": "adjacency"},
                             "potential": {"kind": "periodic",
                                           "values": [[0.0, 1.0], [1.0]]}},
             "radii": [2, 4], "margin": 1},
     "hamiltonian.potential.values[1]: needs at least 2 entries"),
])
@pytest.mark.filterwarnings("error")
def test_bad_inputs_end_in_one_error_line(tmp_path, capsys, command, payload,
                                          message):
    cfg = write_config(tmp_path, {"hamiltonian": FREE_CHAIN,
                                  "g": {"kind": "one"}, **payload})
    assert cli.main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("doslab: error: ") and err.count("\n") == 1
    assert message in err


_DOS = {"space": {"kind": "lattice"}, "hamiltonian": FREE_CHAIN,
        "g": {"kind": "gaussian"}, "radii": [10, 20, 40], "margin": 10}


@pytest.mark.parametrize("argv, payload, message", [
    (["dos"], {**_DOS, "g": {"kind": "bump", "center": 0.5, "sigma": 0.1}},
     "g.sigma: unknown key 'sigma'"),
    (["dos"], {**_DOS, "hamiltonian": {"hopping": {"kind": "kernel"}}},
     "hamiltonian.hopping.offsets: missing required key"),
    (["ids"], {"space": {"kind": "lattice"}, "radius": 10, "hamiltonian": {
        "hopping": {"kind": "adjacency"},
        "potential": {"kind": "iid_uniform", "values": [5, 6],
                      "low": 0, "high": 1}}},
     "hamiltonian.potential.values: unknown key 'values'"),
    (["space", "check-c", "--space", "f2", "--d", "3", "--p", "1",
      "--kmax", "12"], None, "space.d: unknown key 'd'"),
])
def test_a_key_its_kind_does_not_take_is_refused(tmp_path, capsys, argv,
                                                 payload, message):
    """A key the object's kind does not take, or a required key of that
    kind left out, ends the run with one error line at its dotted path."""
    if payload is not None:
        argv = argv + ["--config", write_config(tmp_path, payload)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"doslab: error: {message}\n"


def test_a_finite_g_from_tiny_sigma_warns_nothing(tmp_path, capsys):
    # (x / 1e-310)^2 overflows to inf, and exp(-inf) = 0 is the exact value
    out = tmp_path / "dos.csv"
    cfg = write_config(tmp_path, {**_DOS, "g": {"kind": "gaussian",
                                                "sigma": 1e-310}})
    assert cli.main(["dos", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert read_csv(out) == (["r", "ball_count", "average"],
                             [["10.0", "21", "0.0"], ["20.0", "41", "0.0"],
                              ["40.0", "81", "0.0"]])


@pytest.mark.parametrize("command, payload, message", [
    (["ids"], {"space": {"kind": "lattice"}, "hamiltonian": FREE_CHAIN,
               "radius": 10 ** 400}, "radius: outside the float range"),
    (["vp-trace"], {"radius": -10 ** 400}, "radius: outside the float range"),
    (["vp-trace"], {"d": 10 ** 20, "radius": 10}, "d: must be <= 32"),
    (["ids"], {"space": {"kind": "lattice", "d": 33},
               "hamiltonian": {"hopping": {"kind": "none"}}, "radius": 0},
     "space.d: must be <= 32"),
    (["space", "ladder"], {"space": {"kind": "lattice", "d": 2, "p": 1e308},
                           "kmax": 5}, "l_p lengths leave the float range"),
    (["folner"], {"folner": {"shape": "lacunary", "schedule": [1, 2, 200]}},
     "folner: schedule: a dyadic interval [0, 2^n) has an int64 size only "
     "for n <= 62"),
    (["folner"], {"folner": {"shape": "ball", "d": 2,
                             "schedule": [1, 2, 10 ** 400]}},
     "folner: schedule[2]: the ball in d = 2 has more points than int64 "
     "holds"),
    (["folner"], {"folner": {"shape": "cube", "d": 32, "schedule": [1000]}},
     "folner: schedule[0]: the cube in d = 32 has more points than int64 "
     "holds"),
    (["ergodic"], {"space": {"kind": "lattice", "d": 1},
                   "hamiltonian": {"hopping": {"kind": "adjacency"},
                                   "potential": {"kind": "iid_uniform"}},
                   "g": {"kind": "one"}, "realizations": 2,
                   "folner": {"shape": "cube", "d": 1,
                              "schedule": [1, 2, 10 ** 400]}},
     "folner: schedule[2]: the cube in d = 1 has more points than int64 "
     "holds"),
])
@pytest.mark.filterwarnings("error")
def test_values_beyond_machine_ranges_end_in_one_error_line(
        tmp_path, capsys, command, payload, message):
    """Integers past the float range, dimensions past the 32 axes a ball
    grid can hold, Folner sets whose size passes int64 and l_p lengths
    that overflow are refused with one error line, no traceback and no
    warning."""
    cfg = write_config(tmp_path, payload)
    assert cli.main([*command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("doslab: error: ") and err.count("\n") == 1
    assert message in err


def test_potential_shift_key_is_refused(tmp_path, capsys):
    # translation is a change of space.base; the potential has no shift
    cfg = write_config(tmp_path, {
        "space": {"kind": "lattice", "d": 1},
        "hamiltonian": {"hopping": {"kind": "adjacency"},
                        "potential": {"kind": "periodic",
                                      "values": [0.0, 1.0], "shift": [1]}},
        "g": {"kind": "one"}, "radii": [2, 4]})
    assert cli.main(["dos", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err == ("doslab: error: hamiltonian.potential.shift: "
                   "unknown key 'shift'\n")


def test_space_ladder_refuses_kmax_with_radius(capsys):
    assert cli.main(["space", "ladder", "--d", "1", "--kmax", "5",
                     "--radius", "100"]) == 1
    assert capsys.readouterr().err == (
        "doslab: error: radius: kmax and radius are exclusive; set one\n")


@pytest.mark.parametrize("space", [["--d", "2", "--p", "2"],
                                   ["--space", "f2"]])
def test_space_ladder_to_a_radius_matches_kmax(tmp_path, space):
    """``--radius r_k`` writes the same table as ``--kmax k``."""
    by_k, by_r = tmp_path / "k.csv", tmp_path / "r.csv"
    assert cli.main(["space", "ladder", *space, "--kmax", "7",
                     "--out", str(by_k)]) == 0
    r_k = read_csv(by_k)[1][-1][1]
    assert cli.main(["space", "ladder", *space, "--radius", r_k,
                     "--out", str(by_r)]) == 0
    assert by_r.read_bytes() == by_k.read_bytes()


def test_space_ladder_needs_kmax_or_radius(capsys):
    assert cli.main(["space", "ladder", "--d", "2"]) == 1
    assert capsys.readouterr().err == (
        "doslab: error: kmax: either kmax or radius is required\n")


@pytest.mark.parametrize("argv, radius", [
    ([], "0"), (["--d", "2", "--p", "2"], "0.9"), (["--space", "f2"], "0.5")])
def test_space_ladder_radius_below_the_first_distance(capsys, argv, radius):
    assert cli.main(["space", "ladder", *argv, "--radius", radius]) == 1
    assert capsys.readouterr().err == (
        f"doslab: error: radius: {radius} is below the first realised "
        "distance\n")


@pytest.mark.parametrize("flags, env", [(["--budget", "10"], "50000000"),
                                        ([], "10")])
def test_over_budget_run_ends_in_one_error_line(monkeypatch, capsys, flags,
                                                env):
    # registered first, so the value main writes is undone after the test
    monkeypatch.setenv("DOSLAB_BUDGET", env)
    assert cli.main(["vp-trace", "--radius", "100", *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("doslab: error: ") and err.count("\n") == 1
    assert "needs 201 points, budget is 10" in err


def test_budget_flag_lands_in_environment(monkeypatch, capsys):
    monkeypatch.setenv("DOSLAB_BUDGET", "sentinel")
    assert cli.main(["counterexample", "--mmax", "2", "--budget", "1000"]) == 0
    assert os.environ["DOSLAB_BUDGET"] == "1000"
    assert cli.main(["counterexample", "--mmax", "2", "--budget", "0"]) == 1
    assert "budget: must be >= 1" in capsys.readouterr().err


def test_no_public_function_takes_a_budget():
    """The point budget is process-wide (DOSLAB_BUDGET), never an argument."""
    import doslab
    found = []
    for info in pkgutil.iter_modules(doslab.__path__):
        module = importlib.import_module(f"doslab.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) \
                    != module.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members = [(f"{name}.{attr}", member)
                           for attr, member in vars(obj).items()
                           if not attr.startswith("_")]
            for qual, fn in members:
                fn = getattr(fn, "__func__", fn)  # staticmethod, classmethod
                if inspect.isfunction(fn) and {"budget", "entry_budget"} & set(
                        inspect.signature(fn).parameters):
                    found.append(f"{module.__name__}.{qual}")
    assert found == []


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("doslab ")


def test_thread_cap_lands_in_environment(monkeypatch, capsys):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.setenv(var, "sentinel")
    assert cli.main(["counterexample", "--mmax", "2", "--threads", "3"]) == 0
    assert os.environ["OMP_NUM_THREADS"] == "3"
    assert os.environ["NUMEXPR_NUM_THREADS"] == "3"
    assert cli.main(["counterexample", "--mmax", "2", "--threads", "0"]) == 1
    assert "threads: must be >= 1" in capsys.readouterr().err


def test_folner_shapes_are_listed_once():
    """The shape tuple is stated in the package ``__init__`` alone; the
    library, the config and the CLI all read that one copy."""
    import ast
    import doslab
    src = os.path.dirname(doslab.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            found += [name for node in ast.walk(tree)
                      if isinstance(node, ast.Tuple) and {
                          getattr(e, "value", None) for e in node.elts}
                      == {"cube", "ball", "lacunary"}]
    assert found == ["__init__.py"]
