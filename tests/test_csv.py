"""The package's CSV writer against np.savetxt at %.17g, byte for byte."""

import tracemalloc

import numpy as np
import pytest

from fraccond._csv import write_table


def assert_as_savetxt(tmp_path, table, header="a"):
    """write_table's file is the file np.savetxt writes for the same table."""
    table = np.asarray(table, dtype=np.float64)
    ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
    write_table(str(ours), table, header)
    np.savetxt(oracle, table, fmt="%.17g", delimiter=",", header=header,
               comments="")
    got, want = ours.read_bytes(), oracle.read_bytes()
    if got != want:
        first = next((g, w) for g, w in zip(got.split(b"\n"),
                                            want.split(b"\n")) if g != w)
        pytest.fail(f"first differing line: {first[0]!r} != {first[1]!r}")
    return got


def neighbours(x, ulps=3):
    """x and the ulps doubles on either side of each entry."""
    out, up, down = [x], x, x
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


class TestByteIdentical:
    def test_random_bit_patterns(self, tmp_path):
        rng = np.random.default_rng(15)
        bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64)
        assert_as_savetxt(tmp_path, bits.view(np.float64).reshape(-1, 5))

    def test_every_decimal_exponent(self, tmp_path):
        rng = np.random.default_rng(16)
        exponents = np.arange(-330, 309)
        with np.errstate(over="ignore"):
            mantissas = rng.uniform(1.0, 10.0, size=(exponents.size, 8))
            values = mantissas * 10.0 ** exponents[:, None].astype(float)
        powers = np.array([float(f"1e{X}") for X in exponents])
        values = np.concatenate([values.ravel(), neighbours(powers)])
        values = values[np.isfinite(values)]
        assert_as_savetxt(tmp_path, np.concatenate([values, -values])[:, None])

    @pytest.mark.parametrize("edge", [1e-5, 1e-4, 1e16, 1e17])
    def test_fixed_exponent_switch_points(self, tmp_path, edge):
        values = neighbours(np.array([edge]), ulps=50)
        text = assert_as_savetxt(tmp_path, np.concatenate([values, -values])
                                 .reshape(-1, 2))
        if edge == 1e-4:
            assert b"0.0001," in text and b"9.9999999999999991e-05" in text
        if edge == 1e16:
            assert b"10000000000000000," in text and b"1e+16" not in text
        if edge == 1e17:
            assert b"1e+17," in text and b"99999999999999984" in text

    def test_exact_ties_round_half_even(self, tmp_path):
        rng = np.random.default_rng(17)
        ties = [2251799813685247.75]
        # a / 2**(17 - X) in [10**X, 10**(X + 1)) with a odd is a tie at 17
        # significant digits: a exact ties at decimal exponents -6 ... 14
        for X in range(-6, 15):
            scale = 2.0 ** (17 - X)
            a = rng.integers(int(10**X * scale), int(10 ** (X + 1) * scale),
                             size=64) | 1
            ties += list(a / scale)
        # m/4 and m/8 with m near 2**53
        m = 2**53 - rng.integers(1, 10**6, size=200)
        ties += list(m / 4.0) + list(m / 8.0)
        text = assert_as_savetxt(tmp_path, np.array(ties)[:, None])
        assert text.split(b"\n")[1] == b"2251799813685247.8"

    def test_integers_and_negatives(self, tmp_path):
        rng = np.random.default_rng(18)
        ints = np.concatenate([np.arange(-2000, 2000),
                               rng.integers(-2**62, 2**62, size=20_000)])
        assert_as_savetxt(tmp_path, ints.astype(float).reshape(-1, 4))
        assert_as_savetxt(tmp_path, -rng.uniform(0, 1, size=(2000, 7)))

    def test_values_without_a_fast_path(self, tmp_path):
        tiny = np.finfo(float).tiny
        values = [0.0, -0.0, 5e-324, -5e-324, tiny, np.nextafter(tiny, 0),
                  np.finfo(float).max, np.inf, -np.inf, np.nan, 1e-320]
        assert_as_savetxt(tmp_path, np.array(values)[:, None])

    def test_zero_rows_is_the_header_alone(self, tmp_path):
        assert assert_as_savetxt(tmp_path, np.empty((0, 3)), "a,b,c") \
            == b"a,b,c\n"

    def test_one_column_and_blocks_of_one_row(self, tmp_path):
        rng = np.random.default_rng(19)
        assert_as_savetxt(tmp_path, rng.normal(size=(40_000, 1)), "x")
        # rows longer than a block: one row per block
        assert_as_savetxt(tmp_path, rng.normal(size=(3, 20_000)), "wide")


def test_870_square_table_peaks_below_5_mb(tmp_path):
    # the dn_matrix.csv of dn at N=1024 has 870 x 870 entries
    table = np.random.default_rng(20).normal(size=(870, 870))
    tracemalloc.start()
    try:
        write_table(str(tmp_path / "dn.csv"), table, "h")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6, f"writer peaked at {peak / 1e6:.1f} MB"
