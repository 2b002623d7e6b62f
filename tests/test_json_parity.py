"""``tools/json_parity.py`` on two catalog problems: one line per run, stable fingerprints."""

import hashlib
import importlib.util
from pathlib import Path

import gmra
from gmra import catalog, cli
from gmra.jsonio import dump_json, problem_to_json

_PATH = Path(__file__).resolve().parent.parent / "tools" / "json_parity.py"
_SPEC = importlib.util.spec_from_file_location("json_parity", _PATH)
json_parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(json_parity)

SRC = str(Path(gmra.__file__).resolve().parent.parent)


def lines_of(capsys, names):
    assert json_parity.main(["--src", SRC, "--names", *names]) == 0
    out = capsys.readouterr().out.splitlines()
    return {label: (int(code), digest) for label, code, digest in (line.split("\t") for line in out)}


def test_every_subcommand_in_both_conventions(capsys):
    runs = lines_of(capsys, ["haar", "journe"])
    commands = ["catalog show", *json_parity.ONE_FILE]
    expected = {"catalog list"}
    for conv in ("centered", "unit"):
        expected |= {f"{conv} {c} {name}" for c in commands for name in ("haar", "journe")}
        expected |= {f"{conv} equiv {a} {b}" for a in ("haar", "journe") for b in ("haar", "journe")}
    assert set(runs) == expected
    assert all(len(digest) == 64 for _, digest in runs.values())
    assert runs["unit equiv haar haar"][0] == 0
    assert runs["unit equiv haar journe"][0] == 2  # multiplicity mismatch
    assert lines_of(capsys, ["haar", "journe"]) == runs


def test_fingerprint_is_the_sha256_of_stdout(capsys, tmp_path):
    path = tmp_path / "haar.json"
    path.write_text(dump_json(problem_to_json(catalog.get("haar"))))
    assert cli.main(["--json", "--convention", "unit", "mtilde", str(path)]) == 0
    want = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert lines_of(capsys, ["haar"])["unit mtilde haar"] == (0, want)


def test_pool_runs_cover_every_problem_text_and_pair(capsys):
    runs = json_parity.main(["--src", SRC, "--names", "haar", "--pool", "identities:1", "grid:1"],
                            smoke=True)
    assert runs == 0
    out = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    pool = {label: (int(code), digest) for label, code, digest in out if label.startswith("pool ")}
    equivs = [label for label in pool if " equiv " in label]
    checks = {label.split(" ", 3)[3] for label in pool if " check-filter " in label}
    # every distinct problem text also prints its completion, its sets and its ledger
    for command in ("complement", "purity", "mtilde", "sigma", "construct", "cascade"):
        assert checks == {label.split(" ", 3)[3] for label in pool if f" {command} " in label}
    # identities: each base conjugated once in the smoke pool; grid: four block-diagonal pairs;
    # each pair runs both ways
    assert len([label for label in equivs if label.startswith("pool identities:1")]) == 18
    assert len([label for label in equivs if label.startswith("pool grid:1")]) == 8
    forward = [label for label in equivs if not label.endswith(" reversed")]
    assert sorted(equivs) == sorted(forward + [f"{label} reversed" for label in forward])
    assert pool["pool identities:1 purity haar~P2/0"][0] == 0
    assert pool["pool identities:1 construct haar~P2/0"][0] == 0
    for label, (code, digest) in pool.items():
        assert len(digest) == 64
        # grid's block-diagonal problems carry no G, so construct rejects them as input, and
        # cascade rejects every matrix filter
        input_errors = label.startswith("pool grid:1 construct ") or " cascade " in label
        assert code in (0, 2, 3) or (code == 4 and input_errors)
