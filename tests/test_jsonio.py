import json
import math
from fractions import Fraction

import pytest

from gmra import catalog
from gmra.errors import ProblemFileError
from gmra.jsonio import (
    CENTERED,
    UNIT,
    dump_json,
    filter_to_json,
    multiplicity_to_json,
    parse_filter,
    parse_multiplicity,
    parse_problem,
    parse_rat,
    parse_torus_set,
    parse_trigpoly,
    problem_to_json,
    rat_str,
    torus_set_to_json,
    trigpoly_to_json,
)
from gmra.multiplicity import sigma_sets
from gmra.torus import TorusSet

F = Fraction


class TestRationals:
    def test_bare_integers(self):
        assert rat_str(F(0)) == "0"
        assert rat_str(F(7)) == "7"
        assert rat_str(F(3, 7)) == "3/7"
        assert rat_str(F(-1, 2)) == "-1/2"

    def test_parse_roundtrip(self):
        for text in ("0", "5", "-3/7", "22/7"):
            assert rat_str(parse_rat(text)) == text

    def test_parse_error_carries_path(self):
        with pytest.raises(ProblemFileError) as info:
            parse_rat("1/0", "options.x")
        assert "options.x" in str(info.value)


class TestSets:
    def test_roundtrip_unit(self):
        s = TorusSet.from_intervals([(F(-1, 7), F(1, 7)), (F(1, 4), F(2, 7))])
        assert parse_torus_set(torus_set_to_json(s)) == s

    def test_centered_merges_across_zero(self):
        s = TorusSet.from_intervals([(F(-1, 4), F(1, 4))])
        assert torus_set_to_json(s, "centered") == [["-1/4", "1/4"]]

    def test_centered_full_circle(self):
        assert torus_set_to_json(TorusSet.full(), "centered") == [["-1/2", "1/2"]]


class TestFunctions:
    def test_multiplicity_roundtrip(self):
        m = catalog.get("journe").m
        assert parse_multiplicity(multiplicity_to_json(m)) == m

    def test_trigpoly_roundtrip(self):
        h = catalog.get("haar3_2wavelet").H.entry(0, 0)
        back = parse_trigpoly(trigpoly_to_json(h))
        assert back.deviation_from(h) < 1e-15

    def test_filter_roundtrip(self):
        entry = catalog.get("journe")
        data = filter_to_json(entry.H)
        back = parse_filter(data, entry.m, entry.e, "m")
        for i in range(entry.H.rows):
            for j in range(entry.H.cols):
                assert back.entry(i, j).deviation_from(entry.H.entry(i, j)) < 1e-15


class TestProblemFiles:
    def test_catalog_roundtrip(self):
        for name in catalog.names():
            entry = catalog.get(name)
            problem = parse_problem(json.loads(dump_json(problem_to_json(entry))))
            assert (problem.e, problem.m) == (entry.e, entry.m)
            assert (problem.H, problem.G) == (entry.H, entry.G)
            filters = [H for H in (entry.H, entry.G) if H is not None]
            polys = [h for H in filters for row in H.entries for h in row]
            sets = [h.support() for h in polys] + [entry.m.support(), *sigma_sets(entry.m)]
            sets += [s for H in filters for s in (*H.row_sets, *H.column_sets)]
            for convention in (UNIT, CENTERED):
                assert parse_multiplicity(multiplicity_to_json(entry.m, convention)) == entry.m
                for h in polys:
                    assert parse_trigpoly(trigpoly_to_json(h, convention)) == h
                for s in sets:
                    assert parse_torus_set(torus_set_to_json(s, convention)) == s

    def test_null_filters_treated_as_absent(self):
        data = {
            "endomorphism": {"N": 2},
            "multiplicity": [{"interval": ["0", "1"], "value": 1}],
            "filters": {"H": None, "G": None},
        }
        problem = parse_problem(data)
        assert problem.H is None and problem.G is None

    def test_unknown_option_rejected(self):
        data = {
            "endomorphism": {"N": 2},
            "multiplicity": [],
            "options": {"bogus": 1},
        }
        with pytest.raises(ProblemFileError) as info:
            parse_problem(data)
        assert "options.bogus" in str(info.value)


class TestOptions:
    @staticmethod
    def problem(**options):
        return {"endomorphism": {"N": 2}, "multiplicity": [], "options": options}

    @pytest.mark.parametrize(
        "key, bad",
        [
            ("grid", "abc"), ("grid", 0), ("grid", -4), ("grid", 2.5), ("grid", True),
            ("grid", 2**16 + 1), ("grid", None), ("depth", "x"), ("depth", -1),
            ("depth", 17), ("degree", -1), ("degree", 257), ("degree", 3.0),
            ("seed", -1), ("seed", 2**63), ("seed", False),
            ("tolerance", 0), ("tolerance", -1e-9), ("tolerance", math.nan),
            ("tolerance", math.inf), ("tolerance", "1e-9"), ("tolerance", True),
        ],
    )
    def test_rejected_with_path(self, key, bad):
        with pytest.raises(ProblemFileError) as info:
            parse_problem(self.problem(**{key: bad}), "p.json")
        assert info.value.path == f"p.json.options.{key}"

    def test_range_ends_accepted(self):
        low = parse_problem(self.problem(grid=1, degree=0, depth=0, seed=0, tolerance=1))
        assert low.options == {"tolerance": 1.0, "grid": 1, "degree": 0, "depth": 0, "seed": 0}
        high = parse_problem(self.problem(grid=2**16, degree=256, depth=16, seed=2**63 - 1))
        assert (high.options["grid"], high.options["depth"]) == (2**16, 16)
        assert parse_problem(self.problem()).options["grid"] == 256


class TestInputBounds:
    """N, every input denominator and every multiplicity value are checked before
    anything is built from them."""

    @pytest.mark.parametrize("bad", [1, 0, -3, 2**10 + 1, 2**80, 2.0, True, "2", None])
    def test_dilation_factor_rejected_with_path(self, bad):
        with pytest.raises(ProblemFileError) as info:
            parse_problem({"endomorphism": {"N": bad}, "multiplicity": []}, "p.json")
        assert info.value.path == "p.json.endomorphism.N"

    def test_dilation_factor_range_ends(self):
        for N in (2, 2**10):
            assert parse_problem({"endomorphism": {"N": N}, "multiplicity": []}).e.N == N

    @pytest.mark.parametrize("bad", [True, -1, 2**10 + 1, "2"])
    def test_multiplicity_value_rejected_with_path(self, bad):
        data = problem_to_json(catalog.get("haar"))
        data["multiplicity"][0]["value"] = bad
        with pytest.raises(ProblemFileError) as info:
            parse_problem(data, "p")
        assert info.value.path == "p.multiplicity[0].value"

    def test_multiplicity_value_range_end(self):
        data = problem_to_json(catalog.get("haar"))
        data["multiplicity"][0]["value"] = 2**10
        assert parse_problem(data).m.max_value() == 2**10

    KEYS = [
        ("multiplicity", 0, "interval", 1),
        ("filters", "H", 0, 0, "pieces", 0, "interval", 0),
        ("filters", "H", 0, 0, "pieces", 0, "terms", 0, "freq"),
    ]

    @pytest.mark.parametrize("keys", KEYS)
    @pytest.mark.parametrize("bad", [f"1/{2**32 + 1}", f"-5/{2**70}"])
    def test_denominator_rejected_with_path(self, keys, bad):
        info = self._rejected(keys, bad)
        assert "denominator" in str(info.value)

    @pytest.mark.parametrize("keys", KEYS)
    @pytest.mark.parametrize("bad", ["1e-999999999", "1E999999999", "0.5", "+1/2", " 1", 0.5, True])
    def test_other_text_rejected_before_it_is_read(self, keys, bad):
        # "1e-999999999" would ask Fraction for 10**999999999 if it were read
        info = self._rejected(keys, bad)
        assert "not a rational" in str(info.value)

    @staticmethod
    def _rejected(keys, bad):
        data = problem_to_json(catalog.get("haar"))
        target = data
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = bad
        with pytest.raises(ProblemFileError) as info:
            parse_problem(data, "p")
        path = "p" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)
        assert info.value.path == path
        return info

    def test_denominator_range_end(self):
        assert parse_rat(f"-3/{2**32}") == F(-3, 2**32)
        assert parse_rat(f"{2**40}") == 2**40


class TestNonFiniteCoefficients:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "nan", "-inf"])
    def test_rejected_at_the_term(self, bad):
        data = {"pieces": [{"interval": ["0", "1"], "terms": [{"freq": "0", "re": 1.0, "im": bad}]}]}
        with pytest.raises(ProblemFileError) as info:
            parse_trigpoly(data, "filters.H[0][0]")
        assert info.value.path == "filters.H[0][0].pieces[0].terms[0]"
        assert "finite" in str(info.value)

    def test_problem_file_with_nan_rejected(self):
        data = problem_to_json(catalog.get("haar"))
        data["filters"]["H"][0][0]["pieces"][0]["terms"][0]["re"] = math.nan
        text = json.dumps(data)  # writes the bare token NaN, which json.loads accepts
        assert "NaN" in text
        with pytest.raises(ProblemFileError) as info:
            parse_problem(json.loads(text))
        assert info.value.path == "problem.filters.H[0][0].pieces[0].terms[0]"


class TestDumping:
    def test_seventeen_digit_floats(self):
        text = dump_json({"x": 1.0 / 3.0})
        assert "0.33333333333333331" in text

    def test_fractions_and_sets_serialize(self):
        s = TorusSet.from_intervals([(F(1, 3), F(1, 2))])
        data = json.loads(dump_json({"m": F(5, 7), "s": s}))
        assert data == {"m": "5/7", "s": [["1/3", "1/2"]]}

    def test_complex_serializes_as_re_im(self):
        data = json.loads(dump_json({"c": 1 + 2j}))
        assert data["c"] == {"re": 1.0, "im": 2.0}
