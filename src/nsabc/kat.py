"""Known-answer trace: register states during one encipherment.

The trace lists, for every round, the unit register and the key register
(rows k = 0..64, two schedule rounds per encryption round) and, on even rows,
the tweak and text registers (rows k = 0..32).  Multi-word registers render
high-first, so the key column reads z4 z3 z2 z1 z0 and the text column
x3 x2 x1 x0.

At w=16 the output of the standard vector is checked field-by-field against
the published reference trace embedded below; at other widths the trace of
this implementation's fixed vector is emitted as-is.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cipher import crypt, int_to_block
from .schedules import key_expand, tweak_expand, unit_expand
from .words import check_cipher_width, odot

#: standard single-block vector per width (4w/5w/4w/w-bit values)
KAT_VECTORS = {
    16: {"x": 0x0123456789ABCDEF, "z": 0x88880777006600050000, "t": 0x0001002203334444, "u": 0x1998},
    32: {"x": 0x0123456789ABCDEF, "z": 0x88880777006600050000, "t": 0x0001002203334444, "u": 0x1998},
    64: {"x": 0x0123456789ABCDEF, "z": 0x88880777006600050000, "t": 0x0001002203334444, "u": 0x1998},
}

# Reference trace of the w=16 standard vector.  Columns: k, unit register,
# key register (z4..z0); even rows continue with k/2, tweak register (t3..t0)
# and text register (x3..x0).
REFERENCE_TRACE_16 = """\
 0 1998 88880777006600050000  0 0001002203334444 0123456789ABCDEF
 1 4CC9 00008888077700660005
 2 7FFA 00050000888807770066  1 4444000100220333 388401234567B12F
 3 B32B 00660005000088880777
 4 E65C 07770066000500008888  2 0333444400010022 1E90388401235BF7
 5 198D 88880777006600050000
 6 4CBE 00008888077700660005  3 0022033344440001 60AC1E903884618F
 7 7FEF 00050000888807770066
 8 B320 00660005000088880777  4 0001002203334444 499160AC1E907115
 9 E651 07770066000500008888
10 1982 88880777006600050000  5 4444000100220333 C2D7499160ACDC47
11 4CB3 00008888077700660005
12 7FE4 00050000888807770066  6 0333444400010022 F1EFC2D749919143
13 B315 00660005000088880777
14 E646 07770066000500008888  7 0022033344440001 03D2F1EFC2D74A43
15 1977 88880777006600050000
16 4CA8 00008888077700660005  8 0001002203334444 273D03D2F1EFE5EA
17 7FD9 00050000888807770066
18 B30A 00660005000088880777  9 4444000100220333 1615C2D703D2F1EF
19 E63B 07770066000500008888
20 196C 88880777006600050000 10 0333444400010022 A9B6E7FAC2D703D2
21 4C9D 00008888077700660005
22 7FCE 00050000888807770066 11 0022033344440001 18C0AA64E7FAC2D7
23 B2FF 00660005000088880777
24 E630 07770066000500008888 12 0001002203334444 B049DA17AA64E7FA
25 1961 88880777006600050000
26 4C92 00008888077700660005 13 4444000100220333 851857B3DA17AA64
27 7FC3 00050000888807770066
28 B2F4 00660005000088880777 14 0333444400010022 71F82F7C57B3DA17
29 E625 07770066000500008888
30 1956 88880777006600050000 15 0022033344440001 D5F0ABEF2F7C57B3
31 4C87 00008888077700660005
32 7FB8 00050000888807770066 16 0001002203334444 E5118243ABEF2F7C
33 B2E9 00660005000088880777
34 E61A 07770066000500008888 17 4444000100220333 94FAE51182433F15
35 194B 88880777006600050000
36 4C7C 00008888077700660005 18 0333444400010022 7BB394FAE511F9F0
37 7FAD 00050000888807770066
38 B2DE 00660005000088880777 19 0022033344440001 11747BB394FAF465
39 E60F 07770066000500008888
40 1940 88880777006600050000 20 0001002203334444 D14F11747BB345B5
41 4C71 00008888077700660005
42 7FA2 00050000888807770066 21 4444000100220333 0385D14F11747836
43 B2D3 00660005000088880777
44 E604 07770066000500008888 22 0333444400010022 873B0385D14F964F
45 1935 88880777006600050000
46 4C66 00008888077700660005 23 0022033344440001 CB9B873B03851AD4
47 7F97 00050000888807770066
48 B2C8 00660005000088880777 24 0001002203334444 D6FCCB9B873BD579
49 E5F9 07770066000500008888
50 192A 88880777006600050000 25 4444000100220333 D4CF0385CB9B873B
51 4C5B 00008888077700660005
52 7F8C 00050000888807770066 26 0333444400010022 779F53F40385CB9B
53 B2BD 00660005000088880777
54 E5EE 07770066000500008888 27 0022033344440001 8CECBC0453F40385
55 191F 88880777006600050000
56 4C50 00008888077700660005 28 0001002203334444 C93A8F69BC0453F4
57 7F81 00050000888807770066
58 B2B2 00660005000088880777 29 4444000100220333 2E1A9ACE8F69BC04
59 E5E3 07770066000500008888
60 1914 88880777006600050000 30 0333444400010022 8038921E9ACE8F69
61 4C45 00008888077700660005
62 7F76 00050000888807770066 31 0022033344440001 D4BE0F51921E9ACE
63 B2A7 00660005000088880777
64 E5D8 07770066000500008888 32 0001002203334444 88B14E700F51921E
"""


@dataclass(frozen=True)
class KatTrace:
    """Register states of one encipherment (tuples are low-first)."""

    width: int
    unit_rows: tuple[int, ...]                      # 65 unit register values
    key_rows: tuple[tuple[int, ...], ...]           # 65 states of (z0..z4)
    tweak_rows: tuple[tuple[int, ...], ...]         # 33 states of (t0..t3)
    text_rows: tuple[tuple[int, ...], ...]          # 33 states of (x0..x3)


def compute_trace(x: int, z: int, t: int, u: int, w: int) -> KatTrace:
    """Run one encipherment and capture every register state."""
    check_cipher_width(w)
    mask = (1 << w) - 1
    zw = tuple((z >> (i * w)) & mask for i in range(5))
    tw = tuple((t >> (i * w)) & mask for i in range(4))
    xw = int_to_block(x, w)

    unit_rows = tuple(odot(u, k, w) for k in range(65))
    key_rows = tuple(tuple(zw[(i + k) % 5] for i in range(5)) for k in range(65))
    tweak_rows = tuple(tuple(tw[(i + k) % 4] for i in range(4)) for k in range(33))

    trace: list = []
    crypt(xw, key_expand(zw, w), unit_expand(u, w), tweak_expand(tw, w), w, trace=trace)
    text_rows = tuple(state for _, state, _ in trace)
    return KatTrace(w, unit_rows, key_rows, tweak_rows, text_rows)


def standard_trace(w: int) -> KatTrace:
    v = KAT_VECTORS[check_cipher_width(w)]
    return compute_trace(v["x"], v["z"], v["t"], v["u"], w)


def _hex_words_high_first(words, w: int) -> str:
    digits = w // 4
    return "".join(f"{word:0{digits}X}" for word in reversed(words))


def render_trace(trace: KatTrace) -> str:
    """Format a trace in the tabular register layout."""
    w = trace.width
    d = w // 4
    sep = "===  " + "=" * d + "  " + "=" * (5 * d) + "  ===  " + "=" * (4 * d) + "  " + "=" * (4 * d)
    head1 = f"     {'Unit':>{d}}  {'Key register':>{5 * d}}       {'Tweak register':>{4 * d}}  {'Text register':>{4 * d}}"
    head2 = f"  k  {'u':>{d}}  {'z4 z3 z2 z1 z0':>{5 * d}}    k  {'t3 t2 t1 t0':>{4 * d}}  {'x3 x2 x1 x0':>{4 * d}}"
    lines = [sep, head1, head2, sep]
    for k in range(65):
        row = f"{k:>3}  {trace.unit_rows[k]:0{d}X}  {_hex_words_high_first(trace.key_rows[k], w)}"
        if k % 2 == 0:
            j = k // 2
            row += (f"  {j:>3}  {_hex_words_high_first(trace.tweak_rows[j], w)}"
                    f"  {_hex_words_high_first(trace.text_rows[j], w)}")
        lines.append(row)
    lines.append(sep)
    return "\n".join(lines)


def reference_fields_16() -> list[list[str]]:
    return [line.split() for line in REFERENCE_TRACE_16.strip().splitlines()]


def trace_matches_reference(trace: KatTrace) -> bool:
    """Field-equality of a rendered w=16 trace against the embedded reference table."""
    # data rows open with their row number k; rules and headings do not
    rows = [fields for fields in map(str.split, render_trace(trace).splitlines()) if fields[0].isdigit()]
    return rows == reference_fields_16()
