import json

import pytest

from gmra import catalog, cli, equivalence
from gmra.jsonio import dump_json, problem_to_json, torus_set_to_json, trigpoly_to_json


@pytest.fixture
def problems(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.json"
        path.write_text(dump_json(problem_to_json(catalog.get(name))))
        return str(path)

    return write


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMtilde:
    def test_journe_schema(self, problems, capsys):
        code, out, _ = run(capsys, ["--json", "mtilde", problems("journe")])
        assert code == 0
        assert json.loads(out) == {
            "mtilde": [{"interval": ["0", "1"], "value": 1}]
        }

    def test_flags_accepted_after_subcommand(self, problems, capsys):
        code, out, _ = run(capsys, ["mtilde", problems("journe"), "--json"])
        assert code == 0
        assert json.loads(out) == {
            "mtilde": [{"interval": ["0", "1"], "value": 1}]
        }

    def test_inconsistent_multiplicity_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "endomorphism": {"N": 2},
                    "multiplicity": [{"interval": ["1/4", "1/2"], "value": 1}],
                }
            )
        )
        code, _, err = run(capsys, ["mtilde", str(path)])
        assert code == 2


class TestSigma:
    def test_journe_sets(self, problems, capsys):
        code, out, _ = run(capsys, ["--json", "sigma", problems("journe")])
        assert code == 0
        data = json.loads(out)
        assert data["sigma"][1] == [["0", "1/7"], ["6/7", "1"]]
        assert data["sigma_tilde"] == [[["0", "1"]]]

    def test_centered_convention(self, problems, capsys):
        code, out, _ = run(
            capsys,
            ["--json", "--convention", "centered", "sigma", problems("journe")],
        )
        data = json.loads(out)
        assert data["sigma"][1] == [["-1/7", "1/7"]]


class TestCheckFilter:
    def test_passes(self, problems, capsys):
        code, out, _ = run(capsys, ["--json", "check-filter", problems("haar")])
        assert code == 0
        data = json.loads(out)
        assert data["filter"]["passed"] is True
        assert data["complementary"]["passed"] is True

    def test_negative_fixture_exits_2(self, problems, capsys):
        code, out, _ = run(
            capsys, ["--json", "check-filter", problems("haar_unnormalized")]
        )
        assert code == 2
        assert json.loads(out)["filter"]["max_residual"] >= 1.0


class TestEquiv:
    def test_negated_pair_exits_2(self, problems, capsys):
        code, out, _ = run(
            capsys,
            ["--json", "equiv", problems("haar"), problems("haar_negated")],
        )
        assert code == 2
        data = json.loads(out)
        assert data["verdict"] == "inequivalent"
        assert data["obstruction"]["kind"] == "constant_ratio"
        assert abs(data["obstruction"]["detail"]["ratio"]["re"] + 1.0) < 1e-9

    def test_same_pair_exits_0(self, problems, capsys):
        code, out, _ = run(
            capsys, ["--json", "equiv", problems("haar"), problems("haar")]
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "equivalent"

    def test_unknown_exits_3(self, tmp_path, capsys):
        # |h| = 1 filters with no certified obstruction or witness at degree 0
        base = {
            "endomorphism": {"N": 2},
            "multiplicity": [{"interval": ["0", "1"], "value": 1}],
        }
        a = dict(base)
        a["filters"] = {
            "H": [[{"pieces": [{"interval": ["0", "1"],
                                "terms": [{"freq": "1", "re": 1.0, "im": 0.0}]}]}]]
        }
        b = dict(base)
        b["filters"] = {
            "H": [[{"pieces": [{"interval": ["0", "1"],
                                "terms": [{"freq": "-1", "re": 1.0, "im": 0.0}]}]}]]
        }
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(a))
        pb.write_text(json.dumps(b))
        code, out, _ = run(
            capsys, ["--json", "equiv", str(pa), str(pb), "--degree", "0"]
        )
        assert code == 3
        assert json.loads(out)["verdict"] == "unknown"

    @pytest.mark.parametrize("convention", ["unit", "centered"])
    def test_obstruction_set_follows_the_convention(self, problems, capsys, convention):
        code, out, _ = run(
            capsys,
            ["--json", "--convention", convention, "equiv", problems("cohen"), problems("haar")],
        )
        obstruction = equivalence.decide(catalog.get("cohen").H, catalog.get("haar").H).obstruction
        assert code == 2
        assert json.loads(out)["obstruction"]["detail"]["set"] == torus_set_to_json(
            obstruction.detail["set"], convention
        )


class TestConstruct:
    def test_rank2_negative_supports(self, problems, capsys):
        code, out, _ = run(
            capsys,
            [
                "--json",
                "--convention",
                "centered",
                "construct",
                problems("journe_rank2"),
                "--down",
                "1",
                "--depth",
                "1",
            ],
        )
        assert code == 0
        data = json.loads(out)
        assert data["negative"][0]["V"] == [
            [["-2/7", "-1/4"], ["-1/7", "1/7"], ["1/4", "2/7"]],
            [["-1/14", "1/14"]],
        ]

    def test_eigenfilter_refused(self, problems, capsys):
        code, out, _ = run(
            capsys, ["--json", "construct", problems("eigenfilter_constant")]
        )
        assert code == 2
        assert json.loads(out)["error"] == "NotPureIsometry"


class TestCascade:
    def test_cantor_verdict(self, problems, capsys):
        code, out, _ = run(
            capsys,
            ["--json", "cascade", problems("cantor3"), "--iters", "80",
             "--samples", "64"],
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "degenerates_to_zero"

    def test_csv_dump(self, problems, capsys, tmp_path):
        target = tmp_path / "dump.csv"
        code, _, _ = run(
            capsys,
            ["cascade", problems("haar"), "--iters", "40", "--samples", "16",
             "--dump", str(target)],
        )
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "omega,re,im,abs"
        assert len(lines) == 17


    def test_haar_converges_at_the_default_iterations(self, problems, capsys):
        """The catalog publishes haar's cascade as convergent_nonzero."""
        assert cli.main(["cascade", problems("haar")]) == 0
        assert capsys.readouterr().out == "cascade verdict: convergent_nonzero\n"

    def test_n3_wavelet_converges(self, problems, capsys):
        """The catalog publishes haar3_2wavelet's cascade as convergent_nonzero."""
        code, out, _ = run(capsys, ["--json", "cascade", problems("haar3_2wavelet")])
        assert code == 0
        assert json.loads(out)["verdict"] == "convergent_nonzero"

    def test_unwritable_dump_exits_4_naming_it(self, problems, capsys, tmp_path):
        target = str(tmp_path / "missing" / "x.csv")
        code, _, err = run(capsys, ["cascade", problems("haar"), "--dump", target])
        assert code == 4
        assert err.startswith("input error: ") and target in err


class TestComplement:
    def test_haar_complement(self, problems, capsys):
        code, out, _ = run(
            capsys, ["--json", "complement", problems("haar"), "--grid", "32"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["report"]["passed"] is True
        assert data["G"]["grid"] == 64
        assert len(data["G"]["samples"][0][0]) == 64


class TestValidateAndCatalog:
    def test_validate_ok(self, problems, capsys):
        code, out, _ = run(capsys, ["--json", "validate", problems("journe")])
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_catalog_list(self, capsys):
        code, out, _ = run(capsys, ["catalog", "list"])
        assert code == 0
        assert "journe" in out.split()

    def test_catalog_show_roundtrip(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["--json", "catalog", "show", "haar"])
        assert code == 0
        path = tmp_path / "haar.json"
        path.write_text(out)
        code, out2, _ = run(capsys, ["--json", "check-filter", str(path)])
        assert code == 0

    def test_catalog_unknown_name(self, capsys):
        code, _, err = run(capsys, ["catalog", "show", "nope"])
        assert code == 4
        assert err.startswith("input error: ") and "nope" in err


class TestInputErrors:
    def test_missing_file_exits_4(self, capsys):
        code, _, err = run(capsys, ["mtilde", "/does/not/exist.json"])
        assert code == 4

    def test_schema_error_carries_path(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"endomorphism": {"N": 1}, "multiplicity": []}))
        code, _, err = run(capsys, ["mtilde", str(path)])
        assert code == 4
        assert "endomorphism.N" in err

    @pytest.mark.parametrize(
        "text",
        [
            b'{"a": "\xff"}',  # not UTF-8
            b"[" * 100000,  # nested past the parser's recursion limit
        ],
        ids=["not_utf8", "deep_nesting"],
    )
    def test_undecodable_file_exits_4(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        code, _, err = run(capsys, ["mtilde", str(path)])
        assert code == 4
        assert err.startswith(f"input error: {path}: ")

    @pytest.mark.parametrize(
        "edit, where",
        [
            (lambda entry: entry["pieces"][0].update(terms=5), ".pieces[0]"),
            (lambda entry: entry["pieces"][0].update(terms=None), ".pieces[0]"),
            (lambda entry: entry.update(pieces=3), ".filters.H[0][0]"),
        ],
        ids=["terms_5", "terms_null", "pieces_3"],
    )
    def test_malformed_entry_exits_4(self, tmp_path, capsys, edit, where):
        data = problem_to_json(catalog.get("haar"))
        edit(data["filters"]["H"][0][0])
        path = tmp_path / "bad.json"
        path.write_text(dump_json(data))
        code, _, err = run(capsys, ["check-filter", str(path)])
        assert code == 4
        assert err.startswith(f"input error: {path}.filters.H[0][0]") and where in err

    def test_unknown_command_exits_4(self, capsys):
        code, _, _ = run(capsys, ["frobnicate"])
        assert code == 4

    def test_tol_env_override(self, problems, capsys, monkeypatch):
        monkeypatch.setenv("GMRA_TOL", "1e-20")
        code, out, _ = run(capsys, ["--json", "check-filter", problems("haar")])
        # residual ~1e-16 exceeds the absurdly tight env tolerance
        assert code == 2
        monkeypatch.setenv("GMRA_TOL", "not-a-float")
        code, _, err = run(capsys, ["check-filter", problems("haar")])
        assert code == 4


class TestDeterminism:
    def test_byte_identical_reports(self, problems, capsys):
        path = problems("journe")
        _, out1, _ = run(capsys, ["--json", "validate", path])
        _, out2, _ = run(capsys, ["--json", "validate", path])
        assert out1 == out2

    def test_float_format(self, problems, capsys):
        _, out, _ = run(capsys, ["--json", "check-filter", problems("haar")])
        data = json.loads(out)
        assert isinstance(data["filter"]["max_residual"], float)


class TestRoutingAudit:
    def test_mtilde_routes_to_library(self, problems, capsys, monkeypatch):
        calls = {}

        def spy(m, e):
            calls["hit"] = True
            from gmra.multiplicity import compute_mtilde

            return compute_mtilde(m, e)

        monkeypatch.setattr(cli, "compute_mtilde", spy)
        run(capsys, ["mtilde", problems("haar")])
        assert calls.get("hit")

    def test_purity_routes_to_library(self, problems, capsys, monkeypatch):
        from gmra import equivalence

        calls = {}
        real = equivalence.purity_test

        def spy(H, **kw):
            calls["hit"] = True
            return real(H, **kw)

        monkeypatch.setattr(cli.equivalence, "purity_test", spy)
        run(capsys, ["purity", problems("haar")])
        assert calls.get("hit")


class TestFlagBounds:
    """Numeric flags are checked against jsonio's bounds table; exit 4 names the flag."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["complement", "haar", "--grid", "-4"], "--grid"),
            (["complement", "haar", "--grid", "0"], "--grid"),
            (["cascade", "haar", "--iters", "0"], "--iters"),
            (["cascade", "haar", "--samples", "0"], "--samples"),
            (["construct", "haar", "--depth", "-2"], "--depth"),
            (["construct", "haar", "--down", "-1"], "--down"),
            (["equiv", "haar", "haar_negated", "--degree", "257"], "--degree"),
            (["cuntz", "haar", "--seed", "-1"], "--seed"),
            (["cuntz", "haar", "--trials", "-1"], "--trials"),
            (["check-filter", "haar", "--tol", "0"], "--tol"),
        ],
        ids=[
            "grid-negative", "grid-zero", "iters-zero", "samples-zero", "depth-negative",
            "down-negative", "degree-too-large", "seed-negative", "trials-negative", "tol-zero",
        ],
    )
    def test_out_of_range_exits_4(self, problems, capsys, argv, flag):
        argv = [problems(a) if a in catalog.names() else a for a in argv]
        code, out, err = run(capsys, argv)
        assert code == 4
        assert flag in err
        assert out == ""


class TestProblemOptions:
    """A flag wins, then GMRA_TOL (tolerance only), then the file's option, then the default."""

    @staticmethod
    def write(tmp_path, name, entry="haar", options=None, H=None):
        data = problem_to_json(catalog.get(entry))
        if options is not None:
            data["options"] = options
        if H is not None:
            data["filters"] = {"H": [[trigpoly_to_json(H)]]}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_file_tolerance_used_and_overridden(self, tmp_path, capsys, monkeypatch):
        # haar's residual is about 1e-16: it fails only the file's 1e-20
        path = self.write(tmp_path, "tight", options={"tolerance": 1e-20})
        code, out, _ = run(capsys, ["--json", "check-filter", path])
        assert code == 2
        assert json.loads(out)["filter"]["tolerance"] == 1e-20
        assert run(capsys, ["check-filter", path, "--tol", "1e-9"])[0] == 0
        monkeypatch.setenv("GMRA_TOL", "1e-9")
        assert run(capsys, ["check-filter", path])[0] == 0
        assert run(capsys, ["check-filter", path, "--tol", "1e-20"])[0] == 2

    def test_file_degree_used_by_equiv(self, tmp_path, capsys):
        # haar against its conjugate by e(w) needs a degree-1 multiplier
        twisted = catalog.get("haar").H.entry(0, 0).shift_frequencies(1)
        left = self.write(tmp_path, "haar_degree0", options={"degree": 0})
        right = self.write(tmp_path, "twisted", H=twisted)
        code, out, _ = run(capsys, ["--json", "equiv", left, right])
        assert code == 3
        assert json.loads(out)["searched_degree"] == 0
        code, out, _ = run(capsys, ["--json", "equiv", left, right, "--degree", "1"])
        assert code == 0
        assert json.loads(out)["verdict"] == "equivalent"

    def test_file_seed_used_by_cuntz(self, tmp_path, capsys):
        path = self.write(tmp_path, "seeded", entry="journe", options={"seed": 5})
        by_file = run(capsys, ["--json", "cuntz", path, "--trials", "2"])
        by_flag = run(capsys, ["--json", "cuntz", path, "--trials", "2", "--seed", "5"])
        default = run(capsys, ["--json", "cuntz", path, "--trials", "2", "--seed", "0"])
        assert by_file == by_flag
        assert by_file[1] != default[1]

    def test_overlapping_pieces_exit_4_with_the_entry_path(self, tmp_path, capsys):
        data = problem_to_json(catalog.get("haar"))
        data["filters"]["H"][0][0]["pieces"] = [
            {"interval": ["0", "1/2"], "terms": [{"freq": "0", "re": 1.0, "im": 0.0}]},
            {"interval": ["1/4", "1"], "terms": [{"freq": "0", "re": 1.0, "im": 0.0}]},
        ]
        path = tmp_path / "overlap.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, ["check-filter", str(path)])
        assert code == 4
        assert "filters.H[0][0]" in err
        assert "overlap" in err


class TestUndersizedFilter:
    """A filter smaller than its multiplicities ask for is an input error in every subcommand."""

    @pytest.fixture
    def haar_m2(self, tmp_path):
        data = problem_to_json(catalog.get("haar"))
        data["multiplicity"][0]["value"] = 2  # H and G stay 1x1
        path = tmp_path / "haar_m2.json"
        path.write_text(json.dumps(data))
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["purity", "{m2}"],
            ["cuntz", "{m2}", "--trials", "1"],
            ["equiv", "{m2}", "{haar}"],
            ["equiv", "{haar}", "{m2}"],
            ["construct", "{m2}"],
            ["cascade", "{m2}"],
            ["validate", "{m2}"],
            ["check-filter", "{m2}"],
        ],
    )
    def test_exits_4_naming_the_shape(self, haar_m2, problems, capsys, argv):
        paths = {"m2": haar_m2, "haar": problems("haar")}
        code, out, err = run(capsys, ["--json"] + [a.format(**paths) for a in argv])
        assert code == 4
        assert out == ""
        assert "matrix is 1x1 but multiplicities require at least 2x2" in err
        assert "Traceback" not in err
