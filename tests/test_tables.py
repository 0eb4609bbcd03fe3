"""The table writer: its text is pinned to the one-row-at-a-time formula it
replaced, and every 17-digit string reads back as the same double."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from normshift.tables import formatted, write_table

# nan, the infinities, both zeros, the smallest subnormal and normal, two
# values just below where %g leaves the exponent form (1e-4), two either side
# of where it takes it up again (1e17), and the largest double; then the
# cases of the vectorized formatter: exact ties, which round half to even;
# the %g switch points after rounding (9.9999999999999991e-05 prints in the
# exponent form, 99999999999999984 as an integer); nan with its sign bit set,
# which prints "nan"; the doubles either side of 2**-498 and 2**498, where the
# formatter hands values to "%.17g" itself; and every power of ten from
# 1e-150 to 1e150 with its neighbours
EDGES = [float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324,
         2.2250738585072014e-308, 1e-05, 9.9999999999999e-05, 1e16, 1e17,
         1.7976931348623157e308,
         1234567890123456.75, 1234567890123456.25, 9.9999999999999991e-05, 1e-04,
         99999999999999984.0, -float("nan"), *(y for x in (2.0**-498, 2.0**498)
                                                for y in (np.nextafter(x, 0.0), x)),
         *(y for e in range(-150, 151)
           for y in (np.nextafter(float(f"1e{e}"), 0.0), float(f"1e{e}"),
                     np.nextafter(float(f"1e{e}"), np.inf)))]


def reference_table(rows, header, sep, block) -> str:
    """The writer's original formula: one `str.format` per row, header first,
    a blank line after every `block` rows."""
    line = sep.join(["{:.17g}"] * rows.shape[1])
    text = [] if header is None else [header + "\n"]
    for i, row in enumerate(rows.tolist(), start=1):
        text.append(line.format(*row) + "\n")
        if block and i % block == 0:
            text.append("\n")
    return "".join(text)


def random_doubles(rng, n) -> np.ndarray:
    """Doubles from uniformly random bit patterns: every exponent, subnormals,
    both signs, infinities and nans with payloads."""
    return rng.integers(0, 2**64, size=n, dtype=np.uint64, endpoint=False).view(float)


@settings(max_examples=25, deadline=None)
@given(n_cols=st.integers(1, 6), text=st.lists(st.booleans(), min_size=6, max_size=6),
       sep=st.sampled_from([",", " "]), block=st.sampled_from([None, 1, 7, 37, 300]),
       n=st.integers(1, 800), header=st.sampled_from([None, "a,b"]),
       drawn=st.lists(st.floats(), max_size=20), seed=st.integers(0, 2**32 - 1))
@example(n_cols=2, text=[True, False] * 3, sep=" ", block=37, n=740, header=None, drawn=[], seed=0)
@example(n_cols=6, text=[True, True, False, False, False, True], sep=",", block=None, n=800,
         header="a,b", drawn=[], seed=1)
def test_write_table_matches_the_one_row_formula(tmp_path_factory, n_cols, text, sep, block,
                                                 n, header, drawn, seed):
    rng = np.random.default_rng(seed)
    n_rows = -(-n // block) * block if block else n  # whole blocks, as gnuplot's fronts
    pool = np.concatenate([EDGES, drawn, -np.asarray(EDGES), random_doubles(rng, 64),
                           rng.standard_normal(64)])
    rows = rng.choice(pool, size=(n_rows, n_cols))
    columns = [formatted(col) if text[j] else col for j, col in enumerate(rows.T)]
    path = tmp_path_factory.mktemp("table") / "t.dat"
    write_table(path, columns, header=header, sep=sep, block=block)
    assert path.read_text() == reference_table(rows, header, sep, block)


@settings(max_examples=25, deadline=None)
@given(drawn=st.lists(st.floats(allow_nan=False), max_size=50), seed=st.integers(0, 2**32 - 1))
def test_formatted_reads_back_as_the_same_double(drawn, seed):
    values = np.concatenate([[x for x in EDGES if x == x], drawn,
                             random_doubles(np.random.default_rng(seed), 400)])
    values = values[~np.isnan(values)]
    text = formatted(values)
    back = np.array([float(s) for s in text])
    assert np.array_equal(back.view(np.uint64), values.view(np.uint64))  # -0.0 keeps its sign
    assert formatted(values[:6].reshape(3, 2)).shape == (3, 2)
    assert list(formatted([float("nan"), -0.0, 1e-05])) == [b"nan", b"-0", b"1.0000000000000001e-05"]


def exact_ties(rng, n) -> np.ndarray:
    """Doubles whose exact decimal has 18 significant digits, the last a 5:
    k / 2**j = k 5**j / 10**j for odd k with 10**17 <= k 5**j < 10**18."""
    j = rng.integers(2, 26, n)
    lo, hi = -(-10**17 // 5**j), np.minimum(10**18 // 5**j, 2**53)
    k = 2 * rng.integers(lo // 2, (hi - 2) // 2, endpoint=True) + 1
    return np.ldexp(k.astype(float), -j)


@pytest.mark.hypothesis  # seeded by --hypothesis-seed, so CI's seed loop selects it
def test_formatted_is_byte_exact_at_scale(request, tmp_path):
    # the text of every value is b"%.17g" % x, for random bit patterns, exact
    # ties, normal draws and the edge cases, with both signs, from formatted;
    # and from write_table for the first 10**5 of them in random order (four
    # columns, two of them text, in blocks of 37 rows); the draws are seeded
    # by an integer --hypothesis-seed, and by 0 without one
    rng = np.random.default_rng(int(request.config.getoption("hypothesis_seed") or 0))
    ties = exact_ties(rng, 100_000)
    values = np.concatenate([EDGES, np.negative(EDGES), random_doubles(rng, 200_000), ties, -ties,
                             rng.standard_normal(100_000)])
    values = rng.permutation(values)
    expected = [b"%.17g" % x for x in values.tolist()]
    wrong = [(x, text, want) for x, text, want in zip(values.tolist(), formatted(values).tolist(),
                                                      expected) if text != want]
    assert wrong == []
    rows, expected = values[:10**5].reshape(-1, 4), expected[:10**5]
    write_table(tmp_path / "t.dat", [formatted(col) if j % 2 else col for j, col in enumerate(rows.T)],
                sep=" ", block=37)
    lines = [b" ".join(expected[i:i + 4]) + b"\n" + b"\n" * ((i // 4 + 1) % 37 == 0)
             for i in range(0, len(expected), 4)]
    assert (tmp_path / "t.dat").read_bytes() == b"".join(lines)
