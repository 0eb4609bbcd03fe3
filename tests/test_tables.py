"""The table writer: its text is pinned to the one-row-at-a-time formula it
replaced, and every 17-digit string reads back as the same double."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from normshift.tables import formatted, write_table

# nan, the infinities, both zeros, the smallest subnormal and normal, two
# values just below where %g leaves the exponent form (1e-4), two either side
# of where it takes it up again (1e17), and the largest double
EDGES = [float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324,
         2.2250738585072014e-308, 1e-05, 9.9999999999999e-05, 1e16, 1e17,
         1.7976931348623157e308]


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
