"""Harness layer: file ingestion, generators, metrics, runner, CLI."""

import functools
import json
import os
import re
import sys

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from opins.driver import OpinsSetup, SaddleSystem
from opins.harness import mmio, relres_full, runner
from opins.harness.cli import main as cli_main
from opins.harness.mmio import (MatrixMarketError, load_matrix_market, load_vector,
                                save_matrix_market)
from opins.harness.problems import (ProblemSpec, build_system, generate_problem,
                                    problem_from_files)
from opins.harness.runner import RunConfig, run_case
from opins.projection import Projector, particular_solution
from opins.qrcp import qrcp_factor
from test_driver import krylov_runs
from test_qrcp import reference_range_basis

RANK_TOL = 1e-12

IDENTITY_MM = """%%MatrixMarket matrix coordinate real general
% 3x3 identity
3 3 3
1 1 1.0
2 2 1.0
3 3 1.0
"""

SYMMETRIC_MM = """%%MatrixMarket matrix coordinate real symmetric
3 3 4
1 1 2.0
2 1 -1.0
2 2 2.0
3 2 -1.0
"""

ARRAY_MM = """%%MatrixMarket matrix array real general
2 2
1.0
3.0
2.0
4.0
"""


COORD_HEADER = "%%MatrixMarket matrix coordinate real general\n"

# (id, file text, line the error names); every one of these is malformed
MALFORMED_MM = [
    ("trailing-token", COORD_HEADER + "2 2 1\n1 1 1.0 7\n", 3),
    ("glued-suffix", COORD_HEADER + "2 2 1\n1 1 1.0abc\n", 3),
    ("long-glued-suffix", COORD_HEADER + "2 2 1\n1 1 " + "1" * 20000 + "x\n", 3),
    ("nan", COORD_HEADER + "2 2 2\n1 1 1.0\n2 2 nan\n", 4),
    ("inf", COORD_HEADER + "2 2 1\n1 1 -inf\n", 3),
    ("overflow", COORD_HEADER + "2 2 2\n1 1 1.0\n\n2 2 1e400\n", 5),
    ("overflow-array", "%%MatrixMarket matrix array real symmetric\n"
     "2 2\n1.0\n1e400\n2.0\n", 4),
    ("pattern", "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n", 1),
    ("hermitian", "%%MatrixMarket matrix coordinate real hermitian\n2 2 1\n2 1 1.0\n", 1),
    ("vector", "%%MatrixMarket vector coordinate real general\n2 1\n1 1.0\n", 1),
    ("one-percent-banner", "%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0\n", 1),
    ("six-word-header", COORD_HEADER[:-1] + " extra\n1 1 1\n1 1 1.0\n", 1),
    ("non-integer-index", COORD_HEADER + "2 2 1\n1.5 1 1.0\n", 3),
    ("zero-index", COORD_HEADER + "2 2 1\n0 1 1.0\n", 3),
    ("truncated-array", "%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n3.0\n", 2),
    ("extra-entry", COORD_HEADER + "2 2 1\n1 1 1.0\n2 2 2.0\n", 2),
    ("symmetric-not-square", "%%MatrixMarket matrix array real symmetric\n2 3\n1\n2\n3\n", 2),
    ("empty", "", 1),
    ("latin1-header", COORD_HEADER.replace("general", "g\xe9neral") + "2 2 1\n1 1 1.0\n", 1),
]


class TestMatrixMarket:
    def test_identity_coordinate(self, tmp_path):
        path = tmp_path / "eye.mtx"
        path.write_text(IDENTITY_MM)
        mat = load_matrix_market(path)
        assert mat.shape == (3, 3) and mat.nnz == 3
        np.testing.assert_array_equal(mat.toarray(), np.eye(3))

    def test_symmetric_expansion(self, tmp_path):
        path = tmp_path / "sym.mtx"
        path.write_text(SYMMETRIC_MM)
        mat = load_matrix_market(path)
        # expanded nnz = 2 * offdiag + diag
        assert mat.nnz == 2 * 2 + 2
        np.testing.assert_allclose(mat.toarray(), mat.toarray().T)
        np.testing.assert_allclose(mat.toarray(),
                                   [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 0.0]])

    def test_array_format_column_major(self, tmp_path):
        path = tmp_path / "arr.mtx"
        path.write_text(ARRAY_MM)
        np.testing.assert_array_equal(load_matrix_market(path).toarray(),
                                      [[1.0, 2.0], [3.0, 4.0]])

    def test_complex_field_rejected(self, tmp_path):
        path = tmp_path / "cplx.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 0.0\n")
        with pytest.raises(MatrixMarketError, match="complex"):
            load_matrix_market(path)

    def test_out_of_bounds_reports_line(self, tmp_path):
        path = tmp_path / "oob.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 5.0\n")
        with pytest.raises(MatrixMarketError, match=r"oob\.mtx:3"):
            load_matrix_market(path)

    def test_wrong_entry_count(self, tmp_path):
        path = tmp_path / "short.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n")
        with pytest.raises(MatrixMarketError, match="promises 2"):
            load_matrix_market(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%NotMatrixMarket\n1 1 1\n")
        with pytest.raises(MatrixMarketError, match="header"):
            load_matrix_market(path)

    def test_duplicates_summed(self, tmp_path):
        path = tmp_path / "dup.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.5\n1 1 2.5\n")
        mat = load_matrix_market(path)
        assert mat[0, 0] == 4.0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_roundtrip_matches_scipy_reader(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        dense = rng.standard_normal((7, 5)) * (rng.random((7, 5)) < 0.4)
        mat = sp.csr_matrix(dense)
        path = tmp_path / "rt.mtx"
        save_matrix_market(path, mat)
        ours = load_matrix_market(path)
        theirs = sp.csr_matrix(scipy.io.mmread(path))
        assert (ours != theirs).nnz == 0

    def test_vector_roundtrip(self, tmp_path):
        v = np.array([1.0, -2.0, 3.5])
        path = tmp_path / "vec.mtx"
        save_matrix_market(path, v)
        np.testing.assert_array_equal(load_vector(path), v)

    def test_vector_rejects_matrix(self, tmp_path):
        path = tmp_path / "mat.mtx"
        path.write_text(ARRAY_MM)
        with pytest.raises(MatrixMarketError, match="vector"):
            load_vector(path)

    def test_skew_symmetric_expansion(self, tmp_path):
        path = tmp_path / "skew.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real skew-symmetric\n"
                        "2 2 1\n2 1 3.0\n")
        mat = load_matrix_market(path)
        np.testing.assert_allclose(mat.toarray(), [[0.0, -3.0], [3.0, 0.0]])

    @pytest.mark.parametrize("symmetry, entry, where", [
        ("symmetric", "1 2 5.0", "above"),
        ("skew-symmetric", "1 2 5.0", "above"),
        ("skew-symmetric", "2 2 2.0", "on"),
    ], ids=["symmetric-upper", "skew-upper", "skew-diagonal"])
    def test_entry_outside_the_stored_triangle_rejected(self, symmetry, entry, where, tmp_path):
        # the format stores the lower (skew: strictly lower) triangle only;
        # scipy would sum 1 2 with its mirror 2 1, or keep a skew diagonal
        path = tmp_path / "tri.mtx"
        path.write_text(f"%%MatrixMarket matrix coordinate real {symmetry}\n"
                        f"% comment\n3 3 3\n2 1 5.0\n\n{entry}\n3 1 1.0\n")
        with pytest.raises(MatrixMarketError, match=rf"tri\.mtx:6: entry {where} the diagonal"):
            load_matrix_market(path)

    def test_symmetric_array_format(self, tmp_path):
        path = tmp_path / "symarr.mtx"
        # column-major lower triangle of [[1, 2], [2, 5]]
        path.write_text("%%MatrixMarket matrix array real symmetric\n"
                        "2 2\n1.0\n2.0\n5.0\n")
        mat = load_matrix_market(path)
        np.testing.assert_allclose(mat.toarray(), [[1.0, 2.0], [2.0, 5.0]])

    def test_skew_symmetric_array_format(self, tmp_path):
        path = tmp_path / "skewarr.mtx"
        # strictly-lower column-major entries; diagonal implied zero
        path.write_text("%%MatrixMarket matrix array real skew-symmetric\n"
                        "3 3\n1.0\n2.0\n3.0\n")
        mat = load_matrix_market(path)
        np.testing.assert_allclose(mat.toarray(),
                                   [[0.0, -1.0, -2.0],
                                    [1.0, 0.0, -3.0],
                                    [2.0, 3.0, 0.0]])

    def test_integer_field_accepted(self, tmp_path):
        path = tmp_path / "int.mtx"
        path.write_text("%%MatrixMarket matrix coordinate integer general\n"
                        "2 2 2\n1 1 3\n2 2 -4\n")
        mat = load_matrix_market(path)
        np.testing.assert_allclose(mat.toarray(), [[3.0, 0.0], [0.0, -4.0]])

    @pytest.mark.parametrize("name, text, lineno", MALFORMED_MM,
                             ids=[row[0] for row in MALFORMED_MM])
    def test_malformed_rejected_naming_file_and_line(self, name, text, lineno, tmp_path):
        path = tmp_path / f"{name}.mtx"
        path.write_text(text, encoding="latin-1")
        with pytest.raises(MatrixMarketError) as err:
            load_matrix_market(path)
        assert f"{name}.mtx:{lineno}:" in str(err.value)
        assert err.value.lineno == lineno

    @pytest.mark.parametrize("bad", ["1 2 3.5 7", "1 2 3.5x", "1 2 nan", "1 2"])
    def test_late_bad_line_among_many_shapes_is_named(self, bad, tmp_path):
        # lines of many shapes (index and value lengths, signs, exponents,
        # blanks), the one bad line near the end; a count-only fault is
        # named at the size line
        rng = np.random.default_rng(4)
        lines = [f"{i + 1} {j + 1} {v:.{k}g}" for i, j, v, k in zip(
            rng.integers(0, 300, 400), rng.integers(0, 300, 400),
            rng.standard_normal(400) * 10.0 ** rng.integers(-30, 30, 400),
            rng.integers(1, 18, 400))]
        lines[::37] = [""] * len(lines[::37])
        entries = sum(1 for line in lines if line)
        lines.insert(390, bad)
        path = tmp_path / "late.mtx"
        path.write_text(COORD_HEADER + f"300 300 {entries}\n" + "\n".join(lines) + "\n")
        with pytest.raises(MatrixMarketError) as err:
            load_matrix_market(path)
        assert err.value.lineno == 2 + 390 + 1
        assert "bad entry" in str(err.value)
        # the same lines without the bad one load, and with it as a valid
        # entry the count names the size line
        del lines[390]
        path.write_text(COORD_HEADER + f"300 300 {entries}\n" + "\n".join(lines) + "\n")
        assert load_matrix_market(path).shape == (300, 300)
        lines.insert(390, "1 2 3.5")
        path.write_text(COORD_HEADER + f"300 300 {entries}\n" + "\n".join(lines) + "\n")
        with pytest.raises(MatrixMarketError, match="header promises"):
            load_matrix_market(path)

    @pytest.mark.parametrize("text", [
        # the format allows comments only before the size line
        COORD_HEADER + "2 2 1\n% late comment\n1 1 1.0\n",
        # an integer field holds integers
        "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 1.5\n",
    ], ids=["comment-after-size-line", "fraction-in-integer-field"])
    def test_tightened_inputs_rejected(self, text, tmp_path):
        path = tmp_path / "tight.mtx"
        path.write_text(text)
        with pytest.raises(MatrixMarketError, match=r"tight\.mtx:3:"):
            load_matrix_market(path)

    @pytest.mark.parametrize("last", ["1 1 1.0", "1 1 1.0 \t", "1 1 1.0\n\n  \n"])
    def test_last_line_endings(self, last, tmp_path):
        path = tmp_path / "end.mtx"
        path.write_text(COORD_HEADER + "% c\n\n2 2 1\n" + last)
        np.testing.assert_array_equal(load_matrix_market(path).toarray(), [[1.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_line_ends(self, end, tmp_path):
        path = tmp_path / "ends.mtx"
        text = COORD_HEADER + "% c\n2 2 2\n1 1 1.5\n2 1 -2\n"
        path.write_bytes(text.replace("\n", end).encode())
        np.testing.assert_array_equal(load_matrix_market(path).toarray(),
                                      [[1.5, 0.0], [-2.0, 0.0]])
        path.write_bytes((COORD_HEADER + "2 2 2\n1 1 1.5\n2 1 -2 7\n").replace("\n", end).encode())
        with pytest.raises(MatrixMarketError, match=r"ends\.mtx:4:"):
            load_matrix_market(path)

    def test_latin1_comment_accepted(self, tmp_path):
        path = tmp_path / "latin.mtx"
        path.write_bytes((COORD_HEADER + "% café\n2 2 1\n1 1 3.0\n").encode("latin-1"))
        np.testing.assert_array_equal(load_matrix_market(path).toarray(),
                                      [[3.0, 0.0], [0.0, 0.0]])

    def test_latin1_byte_in_entry_rejected(self, tmp_path):
        path = tmp_path / "latin.mtx"
        path.write_bytes((COORD_HEADER + "2 2 1\n1 1 3.0é\n").encode("latin-1"))
        with pytest.raises(MatrixMarketError, match=r"latin\.mtx:3:"):
            load_matrix_market(path)

    def test_plus_signs_accepted(self, tmp_path):
        path = tmp_path / "plus.mtx"
        path.write_text("%%MatrixMarket matrix coordinate integer general\n"
                        "+2 2 2\n+1 1 +3\n2 +2 -4\n")
        np.testing.assert_array_equal(load_matrix_market(path).toarray(), [[3.0, 0.0], [0.0, -4.0]])
        path.write_text(COORD_HEADER + "1 1 1\n1 1 +.5e+1\n")
        assert load_matrix_market(path)[0, 0] == 5.0

    def test_roundtrip_keeps_explicit_and_signed_zeros(self, tmp_path):
        rng = np.random.default_rng(7)
        dense = rng.standard_normal((40, 30)) * 10.0 ** rng.integers(-300, 300, (40, 30))
        mat = sp.csr_matrix(dense * (rng.random((40, 30)) < 0.2))
        mat.data[::4] = 0.0
        mat.data[1::4] = -0.0
        path = tmp_path / "zeros.mtx"
        save_matrix_market(path, mat)
        back = load_matrix_market(path)
        np.testing.assert_array_equal(back.indptr, mat.indptr)
        np.testing.assert_array_equal(back.indices, mat.indices)
        np.testing.assert_array_equal(back.data, mat.data)
        np.testing.assert_array_equal(np.signbit(back.data), np.signbit(mat.data))

    def test_save_writes_the_given_path(self, tmp_path):
        path = tmp_path / "a.txt"
        save_matrix_market(path, sp.identity(2, format="csr"))
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]
        np.testing.assert_array_equal(load_matrix_market(path).toarray(), np.eye(2))


class TestLoadCache:
    """A content's first load keeps nothing, its second is kept, and later
    loads of the same bytes copy the kept matrix."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        mmio._parse.cache_clear()
        mmio._loaded.clear()
        yield
        mmio._parse.cache_clear()
        mmio._loaded.clear()

    def test_one_load_keeps_no_copy(self, tmp_path):
        path = tmp_path / "a.mtx"
        path.write_text(SYMMETRIC_MM)
        load_matrix_market(path)
        info = mmio._parse.cache_info()
        assert (info.misses, info.hits, info.currsize) == (0, 0, 0)

    def test_repeated_runs_on_one_file_parse_twice_then_reuse(self, tmp_path):
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((40, 40)) * (rng.random((40, 40)) < 0.2)
        np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
        save_matrix_market(tmp_path / "a.mtx", sp.csr_matrix(dense))
        spec = ProblemSpec(name="file", source={"path_a": str(tmp_path / "a.mtx"), "m": 4})
        counts = []
        for name in ("h1.csv", "h2.csv", "h3.csv"):
            run_case(spec, RunConfig(solver="opins-ilu", history_path=str(tmp_path / name)))
            info = mmio._parse.cache_info()
            counts.append((info.misses, info.hits))
        assert counts == [(0, 0), (1, 0), (1, 1)]
        histories = {(tmp_path / name).read_bytes() for name in ("h1.csv", "h2.csv", "h3.csv")}
        assert len(histories) == 1

    def test_same_size_rewrite_with_the_old_mtime_loads_the_new_matrix(self, tmp_path):
        path = tmp_path / "a.mtx"
        path.write_text(COORD_HEADER + "2 2 1\n1 1 1.0\n")
        stat = path.stat()
        assert load_matrix_market(path)[0, 0] == 1.0
        assert load_matrix_market(path)[0, 0] == 1.0
        assert mmio._parse.cache_info().currsize == 1
        path.write_text(COORD_HEADER + "2 2 1\n1 1 7.0\n")
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
        assert load_matrix_market(path)[0, 0] == 7.0

    def test_mutating_a_loaded_matrix_leaves_the_next_load_alone(self, tmp_path):
        path = tmp_path / "a.mtx"
        path.write_text(SYMMETRIC_MM)
        expected = load_matrix_market(path).toarray()
        kept = load_matrix_market(path)
        kept.data[:] = -99.0
        kept.indices[:] = 0
        kept.indptr[:] = 0
        third = load_matrix_market(path)
        assert mmio._parse.cache_info().hits == 1
        np.testing.assert_array_equal(third.toarray(), expected)

    def test_malformed_file_raises_on_every_call_naming_its_path(self, tmp_path):
        text = COORD_HEADER + "2 2 1\n1 1 1.0 7\n"
        paths = [tmp_path / "bad1.mtx", tmp_path / "bad2.mtx"]
        for path in paths:
            path.write_text(text)
        for path in paths + paths:
            with pytest.raises(MatrixMarketError) as err:
                load_matrix_market(path)
            assert str(err.value).startswith(f"{path}:3: bad entry")
            assert (err.value.path, err.value.lineno) == (path, 3)
        assert mmio._parse.cache_info().currsize == 0

    def test_same_bytes_under_a_second_path_load_an_equal_matrix(self, tmp_path):
        rng = np.random.default_rng(5)
        mat = sp.random(30, 20, density=0.2, random_state=rng, format="csr")
        save_matrix_market(tmp_path / "one.mtx", mat)
        (tmp_path / "two.mtx").write_bytes((tmp_path / "one.mtx").read_bytes())
        one = load_matrix_market(tmp_path / "one.mtx")
        two = load_matrix_market(tmp_path / "two.mtx")
        again = load_matrix_market(tmp_path / "one.mtx")
        assert mmio._parse.cache_info().hits == 1 and again is not two
        for loaded in (two, again):
            for name in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(loaded, name), getattr(one, name))


class TestGenerators:
    def test_deterministic(self):
        s1 = generate_problem("random", seed=42)
        s2 = generate_problem("random", seed=42)
        np.testing.assert_array_equal(np.asarray(s1.a), np.asarray(s2.a))
        np.testing.assert_array_equal(s1.f, s2.f)

    def test_random_nonsingular(self):
        system = generate_problem("random", seed=0)
        cond = np.linalg.cond(system.kkt_matrix())
        assert np.isfinite(cond) and cond < 1e12

    def test_random_symmetric_indefinite(self):
        system = generate_problem("random", seed=1)
        a = np.asarray(system.a)
        np.testing.assert_allclose(a, a.T)
        vals = np.linalg.eigvalsh(a)
        assert vals.min() < 0 < vals.max()

    def test_random_s_rank_structure(self):
        system = generate_problem("random-s", seed=0)
        kkt = system.kkt_matrix()
        s = np.linalg.svd(kkt, compute_uv=False)
        rank = int(np.sum(s > 1e-8 * s[0]))
        assert rank == 90  # 2*m + rank(A restricted), with m=20 and rank(A)=50
        # compatibility of f is built in
        a = np.asarray(system.a)
        b = np.asarray(system.b)
        stacked = np.hstack([a, b.T])
        resid = np.linalg.lstsq(stacked, system.f, rcond=None)[1]
        assert resid.size == 0 or resid[0] <= 1e-18

    def test_random_s_b_rank_deficient(self):
        system = generate_problem("random-s", seed=3,
                                  params={"a_rank": 95, "b_rank": 15})
        b = np.asarray(system.b)
        s = np.linalg.svd(b, compute_uv=False)
        assert int(np.sum(s > 1e-10 * s[0])) == 15

    def test_scaled_identity_factor(self):
        base = generate_problem("random-s", seed=5)
        scaled = generate_problem("scaled", seed=5, params={"sigma": 1.0})
        np.testing.assert_array_equal(np.asarray(scaled.a), np.asarray(base.a))
        np.testing.assert_array_equal(scaled.f, base.f)

    def test_scaled_applies_sigma(self):
        base = generate_problem("random-s", seed=6)
        scaled = generate_problem("scaled", seed=6, params={"sigma": 1e10})
        np.testing.assert_allclose(np.asarray(scaled.a), 1e10 * np.asarray(base.a))
        np.testing.assert_array_equal(scaled.g, base.g)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            generate_problem("banded", seed=0)
        with pytest.raises(ValueError, match="kind"):
            ProblemSpec(name="x", source={"kind": "banded"})

    @pytest.mark.parametrize("source, key", [
        ({"path_a": "a.mtx", "n": 50}, "n"),
        ({"kind": "random", "m": 5}, "m"),
        ({"path_a": "a.mtx", "path_b": "b.mtx", "m": 5}, "m"),
    ], ids=["n-with-file", "m-outside-params", "m-with-path-b"])
    def test_source_key_nothing_reads_rejected(self, source, key):
        # m sizes a generated B, so a file B leaves it unread
        with pytest.raises(ValueError, match=rf"nothing reads: \['{key}'\]"):
            ProblemSpec(name="x", source=source)

    @pytest.mark.parametrize("declared", [None, True, False])
    @pytest.mark.parametrize("kind", ["random", "file"])
    def test_a_symmetric_is_the_sources_unless_declared(self, kind, declared, tmp_path):
        # the generators say symmetric, files do not; a declared value wins
        source = {"kind": kind, "seed": 0}
        if kind == "file":
            save_matrix_market(tmp_path / "a.mtx", sp.csr_matrix(2.0 * np.eye(6)))
            source = {"path_a": str(tmp_path / "a.mtx"), "m": 2}
        spec = ProblemSpec(name=kind, source=source, a_symmetric=declared)
        expected = kind != "file" if declared is None else declared
        assert build_system(spec).a_symmetric is expected

    def test_file_f_without_g_draws_a_compatible_g(self, tmp_path):
        # B has 5 Gaussian rows and 2 repeats, so range(B) is 5 of 7
        # dimensions; a g drawn as free noise would lie outside it
        n = 60
        a = sp.diags([-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1],
                     format="csr")
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((5, n))
        b = sp.csr_matrix(np.vstack([rows, rows[[1, 3]]]))
        for name, mat in (("a", a), ("b", b), ("f", rng.standard_normal(n))):
            save_matrix_market(tmp_path / f"{name}.mtx", mat)
        source = {f"path_{name}": str(tmp_path / f"{name}.mtx") for name in "abf"}
        system = problem_from_files(**source, seed=1)
        dense_b = b.toarray()
        in_range = dense_b @ np.linalg.lstsq(dense_b, system.g, rcond=None)[0]
        assert np.linalg.norm(system.g - in_range) <= 1e-12 * np.linalg.norm(system.g)
        record = run_case(ProblemSpec(name="f-file", source={**source, "seed": 1},
                                      a_symmetric=True), RunConfig(solver="opins"))
        assert record.status == "converged" and record.relres_full <= 1e-8

    @pytest.mark.parametrize("kind, params, message", [
        ("scaled", {"sigma": 2.0, "rank": 3}, "unexpected params ['rank']"),
        ("random-s", {"b_rank": 0}, "b_rank must be in 1..m"),
        ("random-s", {"m": 5, "b_rank": 6}, "b_rank must be in 1..m"),
    ], ids=["scaled-extra", "b-rank-0", "b-rank-above-m"])
    def test_bad_params_rejected_with_their_message(self, kind, params, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            generate_problem(kind, seed=0, params=params)

    def test_non_square_a_file_rejected(self, tmp_path):
        save_matrix_market(tmp_path / "a.mtx", sp.csr_matrix(np.ones((2, 3))))
        with pytest.raises(ValueError, match=re.escape("A must be square, got (2, 3)")):
            problem_from_files(str(tmp_path / "a.mtx"))

    def test_unknown_params_rejected(self):
        with pytest.raises(ValueError, match="unexpected"):
            generate_problem("random", seed=0, params={"rank": 3})
        with pytest.raises(ValueError, match="sigma"):
            generate_problem("scaled", seed=0, params={})


class TestMetrics:
    def make(self, seed=0, n=15, m=4):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((n, n))
        a = (raw + raw.T) / 2 + n * np.eye(n)
        b = rng.standard_normal((m, n))
        return SaddleSystem(a=a, b=b, f=rng.standard_normal(n),
                            g=rng.standard_normal(m), a_symmetric=True)

    def test_relres_x_exact_solution(self):
        system = self.make()
        setup = OpinsSetup.build(system, RANK_TOL)
        z = np.linalg.solve(system.kkt_matrix(), system.rhs_full())
        x_n = setup.projector.complement(z[:system.n] - setup.x_p)
        assert setup.relres_x(x_n) <= 1e-13

    def test_relres_x_zero_candidate_is_one(self):
        setup = OpinsSetup.build(self.make(1), RANK_TOL)
        assert setup.relres_x(np.zeros(setup.system.n)) == pytest.approx(1.0)

    def test_relres_x_zero_over_zero(self):
        system = SaddleSystem(a=np.eye(3), b=np.array([[1.0, 0.0, 0.0]]),
                              f=np.array([5.0, 0.0, 0.0]), g=np.array([2.0]),
                              a_symmetric=True)
        assert OpinsSetup.build(system, RANK_TOL).relres_x(np.zeros(3)) == 0.0

    def test_relres_x_matches_dense_oracle_mid_iteration(self):
        system = self.make(2)
        setup = OpinsSetup.build(system, RANK_TOL)
        rng = np.random.default_rng(3)
        x_n = setup.projector.complement(rng.standard_normal(system.n))
        u = reference_range_basis(system.b.T, setup.fact.rank)
        proj = np.eye(system.n) - u @ u.T
        a = np.asarray(system.a)
        lead = proj @ (system.f - a @ setup.x_p)
        oracle = np.linalg.norm(lead - proj @ (a @ x_n)) / np.linalg.norm(lead)
        assert setup.relres_x(x_n) == pytest.approx(oracle, rel=1e-12)

    def test_relres_full_exact_and_zero(self):
        system = self.make(4)
        z = np.linalg.solve(system.kkt_matrix(), system.rhs_full())
        assert relres_full(system, z[:system.n], z[system.n:]) <= 1e-13
        assert relres_full(system, np.zeros(system.n), np.zeros(system.m)) == \
            pytest.approx(1.0)

    def test_relres_full_of_a_zero_rhs_is_absolute(self):
        # f = 0 and g = 0 give no scale to divide by: the residual norm itself
        system = SaddleSystem(a=2.0 * np.eye(3), b=np.array([[1.0, 0.0, 0.0]]),
                              f=np.zeros(3), g=np.zeros(1), a_symmetric=True)
        # A x + B^T y = (1, 0, 0) and B x = 1
        assert relres_full(system, np.array([1.0, 0.0, 0.0]), np.array([-1.0])) == np.sqrt(2.0)
        assert relres_full(system, np.zeros(3), np.zeros(1)) == 0.0

    def test_relres_x_infinite_flag(self):
        # projected right-hand side vanishes but the candidate does not
        system = SaddleSystem(a=np.eye(3), b=np.array([[1.0, 0.0, 0.0]]),
                              f=np.array([5.0, 0.0, 0.0]), g=np.array([2.0]),
                              a_symmetric=True)
        x_n = np.array([0.0, 1.0, 0.0])
        assert OpinsSetup.build(system, RANK_TOL).relres_x(x_n) == np.inf


def count_qrcp_calls(monkeypatch):
    """List that gains one entry per ``qrcp_factor`` call, through every
    loaded opins module that binds the name."""
    calls = []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "opins" and getattr(module, "qrcp_factor", None) is qrcp_factor:
            monkeypatch.setattr(module, "qrcp_factor",
                                lambda bt, tol: calls.append(1) or qrcp_factor(bt, tol))
    return calls


class TestRunner:
    def trivial_spec(self, tmp_path, f0=5.0):
        save_matrix_market(tmp_path / "a.mtx", sp.csr_matrix(np.eye(3)))
        save_matrix_market(tmp_path / "b.mtx", sp.csr_matrix(np.array([[1.0, 0.0, 0.0]])))
        save_matrix_market(tmp_path / "f.mtx", np.array([f0, 0.0, 0.0]))
        save_matrix_market(tmp_path / "g.mtx", np.array([2.0]))
        return ProblemSpec(name="trivial",
                           source={"path_a": str(tmp_path / "a.mtx"),
                                   "path_b": str(tmp_path / "b.mtx"),
                                   "path_f": str(tmp_path / "f.mtx"),
                                   "path_g": str(tmp_path / "g.mtx")},
                           a_symmetric=True)

    def test_trivial_system_zero_iterations(self, tmp_path):
        record = run_case(self.trivial_spec(tmp_path), RunConfig(solver="opins"))
        assert record.status == "converged" and record.iterations == 0
        assert record.relres_full <= 1e-13
        assert record.norm_x == pytest.approx(2.0)
        # x_p solves the null-space equation, so most solvers take no step
        # (pminres-ir* breaks down at f = (5, 0, 0)); every history has
        # max(iterations, 1) rows, and a 0-step row carries the record's
        # relres_full and the solver's drift at x: 0.0 at x = x_p, or
        # ||g - B x|| for the whole-system solvers
        history = tmp_path / "h.csv"
        for f0 in (5.0, 2.0):
            spec = self.trivial_spec(tmp_path, f0)
            for solver in runner.SOLVER_NAMES:
                record = run_case(spec, RunConfig(solver=solver, history_path=str(history)))
                rows = [[float(value) for value in line.split(",")]
                        for line in history.read_text().splitlines()[1:]]
                assert len(rows) == max(record.iterations, 1), (f0, solver)
                if record.iterations == 0:
                    whole = solver in ("pgmres", "tsvd", "nullspace-oracle")
                    assert rows[0][0] == 0 and rows[0][2] == record.relres_full, (f0, solver)
                    assert rows[0][3] == (record.constraint_residual if whole else 0.0)

    @pytest.mark.parametrize("solver", ["opins-p", "pcg"])
    def test_zero_a_writes_a_summary_row(self, solver, tmp_path):
        # an A with no entries, declared symmetric and singular, ends
        # ``breakdown`` after 0 steps; its history still has the one
        # summary row of a run that recorded no step
        save_matrix_market(tmp_path / "a.mtx", sp.csr_matrix((6, 6)))
        spec = ProblemSpec(name="zero", source={"path_a": str(tmp_path / "a.mtx"), "m": 2,
                                                "seed": 2},
                           a_symmetric=True, declared_singular=True)
        history = tmp_path / "h.csv"
        record = run_case(spec, RunConfig(solver=solver, history_path=str(history)))
        assert record.status == "breakdown" and record.iterations == 0
        rows = [[float(value) for value in line.split(",")]
                for line in history.read_text().splitlines()[1:]]
        assert len(rows) == 1
        assert rows[0][0] == 0 and rows[0][2] == record.relres_full and rows[0][3] == 0.0

    def test_csv_and_json_outputs(self, tmp_path):
        spec = ProblemSpec(name="random", source={"kind": "random", "seed": 0},
                           a_symmetric=True)
        cfg = RunConfig(solver="opins-j", history_path=str(tmp_path / "h.csv"),
                        report_path=str(tmp_path / "r.json"))
        record = run_case(spec, cfg)
        assert record.status == "converged"
        lines = (tmp_path / "h.csv").read_text().splitlines()
        assert lines[0] == "iter,relres_x,relres_full,norm_Bxn"
        assert len(lines) == record.iterations + 1
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["schema_version"] == 1
        assert report["metrics"]["status"] == "converged"
        assert report["rank_b"] == 20

    def test_no_constraints(self, tmp_path):
        # m = 0: rank 0, and the run degenerates to a plain solve of A x = f
        spec = ProblemSpec(name="random", source={"kind": "random", "seed": 0,
                                                  "params": {"n": 30, "m": 0}},
                           a_symmetric=True)
        cfg = RunConfig(solver="opins", history_path=str(tmp_path / "h.csv"),
                        report_path=str(tmp_path / "r.json"))
        record = run_case(spec, cfg)
        assert record.status == "converged"
        assert json.loads((tmp_path / "r.json").read_text())["rank_b"] == 0
        lines = (tmp_path / "h.csv").read_text().splitlines()
        assert len(lines) == record.iterations + 1

    @pytest.mark.parametrize("solver", ["opins", "tsvd"])
    def test_full_column_rank_b_relres_x_zero(self, solver, tmp_path):
        # rank B = n = 5: null(B) = {0}, so relres_x is 0/0, which reads 0
        spec = ProblemSpec(name="random", source={"kind": "random", "seed": 0,
                                                  "params": {"n": 5, "m": 8}})
        record = run_case(spec, RunConfig(solver=solver, history_path=str(tmp_path / "h.csv")))
        assert record.relres_x == 0.0
        rows = (tmp_path / "h.csv").read_text().splitlines()[1:]
        assert rows and all(float(row.split(",")[1]) == 0.0 for row in rows)

    def test_csv_bit_identical_across_runs(self, tmp_path):
        spec = ProblemSpec(name="random", source={"kind": "random", "seed": 7},
                           a_symmetric=True)
        for name in ("h1.csv", "h2.csv"):
            run_case(spec, RunConfig(solver="opins-j", history_path=str(tmp_path / name)))
        assert (tmp_path / "h1.csv").read_bytes() == (tmp_path / "h2.csv").read_bytes()

    def test_history_relres_x_reproducible(self, tmp_path):
        spec = ProblemSpec(name="random", source={"kind": "random", "seed": 2},
                           a_symmetric=True)
        cfg = RunConfig(solver="opins", history_path=str(tmp_path / "h.csv"))
        run_case(spec, cfg)
        rows = [ln.split(",") for ln in
                (tmp_path / "h.csv").read_text().splitlines()[1:]]
        # recompute by rerunning with a capturing callback
        from opins.driver import OpinsOptions, opins_solve
        system = build_system(spec)
        fact = qrcp_factor(np.asarray(system.b).T, 1e-12)
        projector = Projector(fact)
        x_p = particular_solution(projector, system.g)
        lead = projector.complement(system.f - system.a @ x_p)
        recomputed = []

        def cb(it, w_k, rr):
            x_n_k = projector.complement(w_k)
            r = lead - projector.complement(system.a @ x_n_k)
            recomputed.append(np.linalg.norm(r) / np.linalg.norm(lead))

        opins_solve(system, OpinsOptions(inner_callback=cb))
        assert len(rows) == len(recomputed)
        for row, expect in zip(rows, recomputed):
            assert float(row[1]) == pytest.approx(expect, rel=1e-12, abs=1e-15)

    # symmetric is the spec's a_symmetric: None keeps the generator's True
    # (auto), False sends opins-j to GMRES, which preconditions from the left
    @pytest.mark.parametrize("solver, kind, symmetric, krylov_name", [
        ("opins", "random", None, "minres"),
        ("opins-j", "random", False, "gmres"),
        ("pcg", "random-s", None, "cg"),
    ], ids=["opins-random-auto-minres", "opins-j-random-left-gmres", "pcg-random-s-auto-cg"])
    def test_projected_rows_take_the_solvers_relres(self, solver, kind, symmetric, krylov_name,
                                                    monkeypatch, tmp_path):
        # the relres_x column is the solver's true residual, equal as a float
        # to setup.relres_x(x_n_k) recomputed from the x_n_k = P w_k the row
        # receives, and the rows do not recompute it: besides the check's own
        # calls, relres_x runs only for the final metrics
        import opins.driver
        import opins.harness.runner
        import opins.krylov

        ran, seen, calls = [], [], []
        solve = getattr(opins.krylov, krylov_name)
        relres_x = opins.driver.OpinsSetup.relres_x

        def counted(setup, x_n):
            calls.append(1)
            return relres_x(setup, x_n)

        monkeypatch.setattr(opins.driver.OpinsSetup, "relres_x", counted)

        def spy(*args, **kwargs):
            ran.append(krylov_name)
            return solve(*args, **kwargs)

        monkeypatch.setattr(opins.krylov, krylov_name, spy)
        row = opins.harness.runner._Case.projected_row

        def recording(case, it, x_n_k, relres):
            seen.append(case.setup.relres_x(x_n_k))
            row(case, it, x_n_k, relres)

        monkeypatch.setattr(opins.harness.runner._Case, "projected_row", recording)
        spec = ProblemSpec(name=kind, source={"kind": kind, "seed": 2}, a_symmetric=symmetric)
        run_case(spec, RunConfig(solver=solver, maxit=60, history_path=str(tmp_path / "h.csv")))
        assert ran == [krylov_name]
        rows = (tmp_path / "h.csv").read_text().splitlines()[1:]
        assert len(rows) == len(seen) > 5
        assert [float(r.split(",")[1]) for r in rows] == seen
        assert len(calls) <= len(seen) + 2

    def test_pcg_breaks_on_indefinite(self):
        spec = ProblemSpec(name="random", source={"kind": "random", "seed": 3},
                           a_symmetric=True)
        record = run_case(spec, RunConfig(solver="pcg", maxit=100))
        assert record.status == "breakdown"

    def test_pcg_requires_symmetric(self, tmp_path):
        rng = np.random.default_rng(0)
        save_matrix_market(tmp_path / "a.mtx",
                           sp.csr_matrix(rng.standard_normal((6, 6)) + 6 * np.eye(6)))
        spec = ProblemSpec(name="nonsym",
                           source={"path_a": str(tmp_path / "a.mtx"), "m": 2},
                           a_symmetric=False)
        with pytest.raises(ValueError, match="symmetric"):
            run_case(spec, RunConfig(solver="pcg"))

    def test_tsvd_and_nullspace_oracle_agree(self, tmp_path):
        spec = ProblemSpec(name="random", source={"kind": "random", "seed": 4},
                           a_symmetric=True)
        rec_tsvd = run_case(spec, RunConfig(solver="tsvd"))
        rec_ns = run_case(spec, RunConfig(solver="nullspace-oracle"))
        assert rec_tsvd.norm_x == pytest.approx(rec_ns.norm_x, rel=1e-8)
        assert rec_tsvd.relres_full <= 1e-10 and rec_ns.relres_full <= 1e-10

    def test_pminres_ir_names(self):
        cfg = RunConfig(solver="pminres-ir(1)")
        assert cfg.solver == "pminres-ir1"
        spec = ProblemSpec(name="random", source={"kind": "random", "seed": 5},
                           a_symmetric=True)
        record = run_case(spec, RunConfig(solver="pminres-ir1", maxit=400))
        assert record.iterations > 0

    @pytest.mark.parametrize("solver", ["pminres-ir0", "pminres-ir1"])
    def test_pminres_factors_b_once(self, solver, monkeypatch, tmp_path):
        calls = count_qrcp_calls(monkeypatch)
        spec = ProblemSpec(name="random-s", source={"kind": "random-s", "seed": 8},
                           declared_singular=True, a_symmetric=True)
        path = tmp_path / "h.csv"
        record = run_case(spec, RunConfig(solver=solver, maxit=300, history_path=str(path)))
        assert len(calls) == 1
        # the history rows observe the x the run returns: the last row's
        # relres_x is the record's
        last = path.read_text().splitlines()[-1].split(",")
        assert int(last[0]) == record.iterations
        assert float(last[1]) == record.relres_x

    @pytest.mark.parametrize("solver, symmetric", [
        ("opins", None), ("opins-j", False), ("opins-p", None), ("opins-ilu", False)])
    def test_opins_record_takes_the_reports_metrics(self, solver, symmetric, monkeypatch,
                                                    tmp_path):
        # the record's relres_x and relres_full are those opins_solve
        # reported, not formed again, so the last history row's relres_x is
        # the record's, bit for bit
        reports, solve = [], runner.opins_solve

        def spy(*args, **kwargs):
            reports.append(solve(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(runner, "opins_solve", spy)
        monkeypatch.setattr(runner._Case, "relres_x", lambda *args: pytest.fail("recomputed"))
        spec = ProblemSpec(name="random", source={"kind": "random", "seed": 2},
                           a_symmetric=symmetric)
        path = tmp_path / "h.csv"
        record = run_case(spec, RunConfig(solver=solver, maxit=60, history_path=str(path)))
        [report] = reports
        assert record.relres_x == report.metrics["relres_x"]
        assert record.relres_full == report.metrics["relres_full"]
        last = path.read_text().splitlines()[-1].split(",")
        assert int(last[0]) == record.iterations > 5
        assert float(last[1]) == record.relres_x

    @pytest.mark.parametrize("solver", runner.SOLVER_NAMES)
    def test_every_solver_factors_b_once(self, solver, monkeypatch):
        # the baselines take the rank, rows and x_p of the run's one QRCP
        calls = count_qrcp_calls(monkeypatch)
        spec = ProblemSpec(name="random", source={"kind": "random", "seed": 4},
                           a_symmetric=True)
        direct = runner._CASES[solver] is runner._direct_case
        run_case(spec, RunConfig(solver=solver, **({} if direct else dict(maxit=30))))
        assert len(calls) == 1

    def test_pgmres_runs(self):
        spec = ProblemSpec(name="random", source={"kind": "random", "seed": 6},
                           a_symmetric=True)
        record = run_case(spec, RunConfig(solver="pgmres", maxit=150))
        assert record.relres_full is not None

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_baselines_on_rank_deficient_b(self, seed):
        # 10 rows of B with rank 6: pgmres builds the constraint
        # preconditioner on the rows the QRCP keeps and zero-pads y
        spec = ProblemSpec(name="random-s",
                           source={"kind": "random-s", "seed": seed,
                                   "params": {"n": 60, "m": 10, "b_rank": 6}},
                           declared_singular=True, a_symmetric=True)
        config = RunConfig(solver="pgmres")
        record = run_case(spec, config)
        assert record.status == "converged"
        assert record.relres_full <= 1e-8
        # the record has no y; the runner's own case gives it
        case = runner._Case(OpinsSetup.build(build_system(spec), config.qrcp_tol),
                            runner._HistoryWriter(None))
        _, y, _, _ = runner._pgmres_case(case, spec, config)
        fact = case.setup.fact
        assert fact.rank == 6
        assert np.all(y[fact.permutation[fact.rank:]] == 0.0)
        # the pminres baselines may break down or stall here, the instability
        # the paper reports, but they end in a status, not an exception
        for solver in ("pminres-ir0", "pminres-ir1"):
            assert run_case(spec, RunConfig(solver=solver)).status in (
                "converged", "breakdown", "max_iterations")

    @pytest.mark.parametrize("solver", ["opins", "opins-j", "opins-p"])
    def test_symmetric_opins_variants_converge(self, solver):
        spec = ProblemSpec(name="random", source={"kind": "random", "seed": 8},
                           a_symmetric=True)
        record = run_case(spec, RunConfig(solver=solver, tol=1e-11))
        assert record.status == "converged"
        assert record.relres_full <= 1e-9
        assert np.isfinite(record.norm_x) and np.isfinite(record.norm_y)

    def test_opins_ilu_on_nonsymmetric_sparse(self, tmp_path):
        # ILU(0) pairs with the GMRES path: nonsymmetric diagonally dominant A
        rng = np.random.default_rng(9)
        n = 60
        mask = rng.random((n, n)) < 0.1
        np.fill_diagonal(mask, True)
        dense = rng.standard_normal((n, n)) * mask
        np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
        save_matrix_market(tmp_path / "a.mtx", sp.csr_matrix(dense))
        spec = ProblemSpec(name="nonsym-sparse",
                           source={"path_a": str(tmp_path / "a.mtx"), "m": 5, "seed": 2},
                           a_symmetric=False)
        record = run_case(spec, RunConfig(solver="opins-ilu"))
        assert record.status == "converged"
        assert record.relres_x <= 1e-10

    def observed_counts(self, monkeypatch, tmp_path, solver, symmetric):
        """Run ``solver`` with a history file on a diagonally dominant sparse
        A (n = 200, symmetric or not) and count the products with A and the
        projections inside its one Krylov call.  Checks that each history
        row gets x_n = P w of the solver's own iterate w, as computed, and
        that the multipliers are recovered once, for the returned x, not per
        row; returns the record and the counts."""
        import opins.driver
        import opins.harness.runner
        import opins.krylov
        from opins.projection import Projector

        rng = np.random.default_rng(9)
        n = 200
        dense = sp.random(n, n, density=0.03, random_state=rng).toarray()
        dense += dense.T.copy() * (1.0 if symmetric else -0.5)
        np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 0.05)
        save_matrix_market(tmp_path / "a.mtx", sp.csr_matrix(dense))
        spec = ProblemSpec(name="sparse", a_symmetric=symmetric,
                           source={"path_a": str(tmp_path / "a.mtx"), "m": 5, "seed": 2})

        a_products, complements, iterates, rows, multipliers = [], [], [], [], []

        class CountedCSR(sp.csr_matrix):
            def _matmul_vector(self, other):
                a_products.append(1)
                return super()._matmul_vector(other)

        build = opins.harness.runner.build_system

        def counted_build(spec):
            system = build(spec)
            system.a = CountedCSR(system.a)
            return system

        complement = Projector.complement

        def counted_complement(projector, v):
            complements.append(1)
            return complement(projector, v)

        counts = {}

        def spy(*args, _solve, callback, **kwargs):
            def seen(it, w, relres):
                iterates.append(w)
                callback(it, w, relres)

            before = len(a_products), len(complements)
            outcome = _solve(*args, callback=seen, **kwargs)
            counts["a"], counts["p"] = (len(a_products) - before[0],
                                        len(complements) - before[1])
            return outcome

        row = opins.harness.runner._Case.projected_row

        def recording(case, it, x_n_k, relres):
            rows.append((case.setup.projector, x_n_k))
            row(case, it, x_n_k, relres)

        recover = opins.driver.recover_multipliers

        def counted_recover(projector, residual):
            multipliers.append(1)
            return recover(projector, residual)

        monkeypatch.setattr(opins.harness.runner, "build_system", counted_build)
        monkeypatch.setattr(Projector, "complement", counted_complement)
        monkeypatch.setattr(opins.driver, "recover_multipliers", counted_recover)
        for name in ("minres", "gmres"):
            monkeypatch.setattr(opins.krylov, name,
                                functools.partial(spy, _solve=getattr(opins.krylov, name)))
        monkeypatch.setattr(opins.harness.runner._Case, "projected_row", recording)
        record = run_case(spec, RunConfig(solver=solver,
                                          history_path=str(tmp_path / "h.csv")))
        assert len(rows) == len(iterates) == record.iterations
        for (projector, x_n_k), w_k in zip(rows, iterates):
            assert np.array_equal(x_n_k, complement(projector, w_k))
        assert len(multipliers) == 1
        return record, counts

    def test_observed_step_budget(self, monkeypatch, tmp_path):
        # an observed GMRES step makes 2 A products and 4 projections: one of
        # each pair for the Arnoldi vector, and one P w and one P(A x_n) for
        # the true residual; the history row reads that residual and makes
        # neither.  Each restart cycle after the first adds the residual of
        # its starting iterate, and the first starts from the right-hand side
        record, counts = self.observed_counts(monkeypatch, tmp_path, "opins-ilu", False)
        steps = record.iterations
        assert record.status == "converged" and 5 < steps < 50
        # one restart cycle, which starts at x = 0 with no product
        assert counts == {"a": 2 * steps, "p": 4 * steps}

    def test_observed_unpreconditioned_minres_step_budget(self, monkeypatch, tmp_path):
        # without a preconditioner every Lanczos vector already lies in
        # null(B), so the operator applies P A alone: an observed step makes
        # 2 A products and 3 projections, the true residual's P w and
        # P(A x_n) still among them
        record, counts = self.observed_counts(monkeypatch, tmp_path, "opins", True)
        steps = record.iterations
        assert record.status == "converged" and steps > 5
        assert counts == {"a": 2 * steps, "p": 3 * steps}

    @pytest.mark.parametrize("problem", ["dense-b", "sparse-rank-deficient-b", "g-outside-range"])
    @pytest.mark.parametrize("solver, symmetric", [
        ("opins", True), ("opins-j", False), ("opins-p", True), ("opins-ilu", True),
        ("pcg", True)], ids=["opins-minres", "opins-j-gmres", "opins-p", "opins-ilu", "pcg"])
    def test_projected_rows_match_the_explicit_full_residual(self, solver, symmetric, problem,
                                                             monkeypatch, tmp_path):
        # a projected row's relres_full comes from the solver's own true
        # residual and one B product; it agrees with relres_full of the
        # (x_k, y_k) that setup.recover gives for the row's x_n_k
        from test_qrcp import averaging_b

        b = averaging_b(0)
        n = b.shape[1]
        a = sp.diags([-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1],
                     format="csr")
        save_matrix_market(tmp_path / "a.mtx", a)
        source = {"path_a": str(tmp_path / "a.mtx"), "seed": 3}
        if problem == "dense-b":
            source["m"] = 8
        else:
            save_matrix_market(tmp_path / "b.mtx", b)
            source["path_b"] = str(tmp_path / "b.mtx")
        if problem == "g-outside-range":
            # the last rows repeat earlier ones; their g entries differ by 1
            g = b @ np.random.default_rng(3).standard_normal(n)
            g[-1] += 1.0
            save_matrix_market(tmp_path / "g.mtx", g)
            source["path_g"] = str(tmp_path / "g.mtx")

        cases, expected = [], []
        row = runner._Case.projected_row

        def recording(case, it, x_n_k, relres):
            cases.append(case)
            x_k, y_k, _ = case.setup.recover(x_n_k)
            expected.append(relres_full(case.setup.system, x_k, y_k))
            row(case, it, x_n_k, relres)

        monkeypatch.setattr(runner._Case, "projected_row", recording)
        path = tmp_path / "h.csv"
        spec = ProblemSpec(name=problem, source=source, a_symmetric=symmetric)
        run_case(spec, RunConfig(solver=solver, maxit=60, history_path=str(path)))
        setup = cases[0].setup
        assert (setup.fact.u is None) == (problem != "dense-b")
        g_res_p = np.linalg.norm(setup.system.g - setup.system.b @ setup.x_p)
        assert (g_res_p > 0.1) == (problem == "g-outside-range")
        written = [float(line.split(",")[2]) for line in path.read_text().splitlines()[1:]]
        assert len(written) == len(expected) > 5
        assert np.max(np.abs(np.subtract(written, expected))) <= 1e-14

    @pytest.mark.parametrize("solver, kind", [
        ("opins-ilu", "random"), ("opins-p", "random"), ("pcg", "random-s")])
    def test_runs_leave_no_reference_cycles(self, solver, kind, tmp_path):
        # a cycle through a run's step ledger or observer keeps its history
        # and iterates alive until a full collection: repeated observed runs
        # then hold far more memory than one
        import gc

        spec = ProblemSpec(name=kind, source={"kind": kind, "seed": 1})
        history = str(tmp_path / "h.csv")
        run_case(spec, RunConfig(solver=solver, history_path=history))
        gc.collect()
        gc.disable()
        try:
            run_case(spec, RunConfig(solver=solver, history_path=history))
            run_case(spec, RunConfig(solver=solver))
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("solver", ["opins-ilu", "opins-p"])
    def test_ilu0_on_a_generated_problem_runs_gmres(self, solver, seed, monkeypatch):
        # ILU(0) of the symmetric indefinite A is no SPD preconditioner, which
        # MINRES needs (it broke down after 0 steps); GMRES converges
        ran = krylov_runs(monkeypatch)
        spec = ProblemSpec(name="random", source={"kind": "random", "seed": seed})
        record = run_case(spec, RunConfig(solver=solver, g_kind="ilu0"))
        assert ran == ["gmres"]
        assert record.status == "converged" and record.relres_x <= 1e-10

    @pytest.mark.parametrize("solver", ["opins", "opins-p", "pcg", "pminres-ir1", "pgmres"])
    def test_history_file_does_not_change_the_result(self, solver, tmp_path):
        # the per-iteration rows run only for a history file; they observe
        # the solve without changing it.  Whether the indefinite constraint
        # preconditioner lets pminres-ir1 converge on this seed depends on
        # rounding, which the BLAS thread count moves (at one thread it
        # breaks down at step 50); the runs agree either way
        spec = ProblemSpec(name="random-s", source={"kind": "random-s", "seed": 8},
                           declared_singular=True, a_symmetric=True)
        plain = run_case(spec, RunConfig(solver=solver, maxit=300))
        path = tmp_path / "h.csv"
        logged = run_case(spec, RunConfig(solver=solver, maxit=300,
                                          history_path=str(path)))
        assert plain.status == logged.status
        if solver != "pminres-ir1":
            assert plain.status == "converged"
        assert plain.iterations == logged.iterations > 0
        for key in ("relres_x", "relres_full", "constraint_residual", "norm_x", "norm_y"):
            assert getattr(plain, key) == getattr(logged, key)
        assert len(path.read_text().splitlines()) == logged.iterations + 1

    def test_unknown_solver(self):
        with pytest.raises(ValueError, match="unknown solver"):
            RunConfig(solver="sor")

    @pytest.mark.parametrize("solver, g_kind", [
        ("pcg", "identity"), ("pgmres", "ilu0"), ("tsvd", "jacobi"),
        ("nullspace-oracle", "identity"), ("pminres-ir1", "ilu0"), ("pminres-ir(2)", "ilu0"),
        ("opins", "ilu0"),
    ])
    def test_g_kind_the_solver_does_not_read_rejected(self, solver, g_kind):
        with pytest.raises(ValueError, match="g_kind"):
            RunConfig(solver=solver, g_kind=g_kind)

    @pytest.mark.parametrize("solver, g_kind", [
        ("pminres-ir0", "identity"), ("pminres-ir1", "jacobi"), ("opins-p", "jacobi"),
    ])
    def test_g_kind_the_solver_reads_accepted(self, solver, g_kind):
        assert RunConfig(solver=solver, g_kind=g_kind).g_kind == g_kind

    @pytest.mark.parametrize("kwargs, match", [
        (dict(solver="opins", g_kind="amg"), "g_kind"),
        (dict(solver="opins-j", g_kind="amg"), "g_kind"),
        (dict(solver="tsvd", tol=0.5), "tol"),
        (dict(solver="tsvd", maxit=5), "maxit"),
        (dict(solver="nullspace-oracle", restart=3), "restart"),
        (dict(solver="nullspace-oracle", tol=0.5, maxit=5), "tol, maxit"),
        (dict(solver="pcg", restart=3), "restart"),
        (dict(solver="pminres-ir1", restart=3), "restart"),
    ], ids=["opins-amg", "opins-j-amg", "tsvd-tol", "tsvd-maxit", "nullspace-oracle-restart",
            "nullspace-oracle-tol-maxit", "pcg-restart", "pminres-restart"])
    def test_setting_rejected_when_the_config_is_built(self, kwargs, match):
        # a value no solver accepts, or a setting the chosen solver does not
        # read, fails in the constructor, before any problem is loaded
        with pytest.raises(ValueError, match=match):
            RunConfig(**kwargs)

    def test_pminres_jacobi_replaces_a_zero_diagonal_as_build_g_does(self, tmp_path):
        # a_00 = 0 and B's column 0 zero: |diag A| as G would leave row and
        # column 0 of the constraint preconditioner zero
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((40, 40))
        a = (raw + raw.T) / 2 + 10 * np.eye(40)
        a[0, 0] = 0.0
        b = rng.standard_normal((5, 40))
        b[:, 0] = 0.0
        save_matrix_market(tmp_path / "a.mtx", sp.csr_matrix(a))
        save_matrix_market(tmp_path / "b.mtx", sp.csr_matrix(b))
        spec = ProblemSpec(name="zero-diagonal",
                           source={"path_a": str(tmp_path / "a.mtx"),
                                   "path_b": str(tmp_path / "b.mtx"), "seed": 3},
                           a_symmetric=True)
        for solver in ("opins-j", "opins-p", "pminres-ir1"):
            record = run_case(spec, RunConfig(solver=solver, g_kind="jacobi"))
            assert record.status == "converged", solver

    def test_concurrent_runs_match_serial(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        spec = ProblemSpec(name="random", source={"kind": "random", "seed": 11},
                           a_symmetric=True)

        def one(tag):
            path = tmp_path / f"h-{tag}.csv"
            run_case(spec, RunConfig(solver="opins-j", history_path=str(path)))
            return path.read_bytes()

        serial = one("serial")
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(one, ["t1", "t2"]))
        assert results[0] == serial and results[1] == serial


class TestCli:
    def test_generator_run_exit_zero(self, tmp_path, capsys):
        rc = cli_main(["--problem", "random", "--seed", "3", "--solver", "opins-j",
                       "--report", str(tmp_path / "r.json"),
                       "--history", str(tmp_path / "h.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "status=converged" in out
        assert (tmp_path / "r.json").exists() and (tmp_path / "h.csv").exists()

    def test_no_constraints_exit_zero(self, capsys):
        rc = cli_main(["--problem", "random", "--m", "0", "--solver", "opins"])
        assert rc == 0
        assert "status=converged" in capsys.readouterr().out

    def test_breakdown_exit_nonzero(self, tmp_path, capsys):
        rc = cli_main(["--problem", "random", "--seed", "3", "--solver", "pcg"])
        assert rc == 1
        assert "status=breakdown" in capsys.readouterr().out

    def test_file_problem(self, tmp_path, capsys):
        save_matrix_market(tmp_path / "a.mtx", sp.csr_matrix(np.eye(8) * 2.0))
        rc = cli_main(["--matrix-a", str(tmp_path / "a.mtx"), "--m", "2",
                       "--seed", "1", "--symmetric", "yes", "--solver", "opins"])
        assert rc == 0

    def test_ilu_overflow_exits_with_config_error(self, tmp_path, capsys):
        # finite A whose ILU(0) pivot in row 1 overflows to -inf
        a = np.array([[1e-300, 1, 0, 0], [1e300, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
        save_matrix_market(tmp_path / "ovf.mtx", sp.csr_matrix(a))
        rc = cli_main(["--matrix-a", str(tmp_path / "ovf.mtx"), "--m", "1", "--seed", "1",
                       "--solver", "opins-ilu", "--symmetric", "no"])
        assert rc == 2
        assert "error: ilu0: non-finite pivot in row 1" in capsys.readouterr().err

    def test_singular_flag_guard_exits_with_config_error(self, capsys):
        rc = cli_main(["--problem", "random-s", "--seed", "0", "--solver", "opins-j",
                       "--singular", "yes"])
        assert rc == 2
        assert "projected" in capsys.readouterr().err

    def test_missing_file_exits_with_config_error(self, capsys):
        rc = cli_main(["--matrix-a", "/nonexistent/a.mtx", "--solver", "opins"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_requires_exactly_one_source(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--solver", "opins"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("kind", ["foo", "scaled"])
    def test_unknown_problem_kind_exits_with_config_error(self, kind, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--problem", kind, "--solver", "opins"])
        assert exc.value.code == 2
        assert "--problem" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--problem", "random", "--matrix-b", "/nonexistent.mtx"],
        ["--problem", "random", "--rhs-f", "f.mtx"],
        ["--problem", "random-s", "--rhs-g", "g.mtx"],
        ["--matrix-a", "A.mtx", "--sigma", "1e10"],
        ["--problem", "random", "--b-rank", "10"],
        ["--matrix-a", "A.mtx", "--b-rank", "10"],
        ["--matrix-a", "A.mtx", "--n", "50"],
        ["--matrix-a", "A.mtx", "--m", "5", "--matrix-b", "B.mtx"],
        ["--problem", "random", "--a-rank", "10"],
        ["--matrix-a", "A.mtx", "--a-rank", "10"],
    ], ids=["matrix-b", "rhs-f", "rhs-g", "sigma-with-file", "b-rank-random",
            "b-rank-file", "n-with-file", "m-with-matrix-b", "a-rank-random", "a-rank-file"])
    def test_option_the_source_ignores_exits_with_config_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--solver", "opins"])
        assert exc.value.code == 2
        # the error line, not the usage above it, names the flag
        message = capsys.readouterr().err.splitlines()[-1]
        assert re.search(rf"{argv[2]}\b", message), message

    def test_setting_the_solver_ignores_exits_with_config_error(self, capsys):
        # tsvd is direct: it reads neither an iteration cap nor a tolerance
        rc = cli_main(["--problem", "random", "--seed", "1", "--solver", "tsvd",
                       "--maxit", "5", "--tol", "0.5"])
        assert rc == 2
        assert "takes no tol, maxit" in capsys.readouterr().err

    @pytest.mark.parametrize("symmetric, krylov_name, exit_code, restart", [
        ("yes", "minres", 0, []),
        # GMRES(50) stalls on the indefinite problem and ends at max_iterations
        ("no", "gmres", 1, ["--restart", "50"]),
        # the default cycle, as long as the solve here, converges in 80 steps
        ("no", "gmres", 0, []),
    ], ids=["yes-minres-0", "no-gmres-1", "no-gmres-0"])
    def test_symmetric_flag_picks_the_solver_of_a_generated_problem(
            self, symmetric, krylov_name, exit_code, restart, monkeypatch, capsys):
        ran = krylov_runs(monkeypatch)
        rc = cli_main(["--problem", "random", "--seed", "1", "--solver", "opins",
                       "--symmetric", symmetric, *restart])
        assert rc == exit_code
        assert ran == [krylov_name]

    def test_settings_not_given_stay_absent(self):
        # RunConfig and the generators supply every default, not the parser
        from opins.harness.cli import build_parser

        args = vars(build_parser().parse_args(["--problem", "random", "--solver", "opins"]))
        for name in ("n", "m", "a_rank", "b_rank", "tol", "qrcp_tol", "maxit", "restart",
                     "g_kind"):
            assert name not in args

    def test_g_kind_the_solver_ignores_exits_with_config_error(self, capsys):
        rc = cli_main(["--problem", "random-s", "--solver", "pgmres", "--g-kind", "ilu0"])
        assert rc == 2
        assert "g_kind" in capsys.readouterr().err

    def test_scaled_problem_flag(self, capsys):
        rc = cli_main(["--problem", "random-s", "--seed", "0", "--sigma", "1e10",
                       "--solver", "opins"])
        assert rc == 0
        assert "status=converged" in capsys.readouterr().out
