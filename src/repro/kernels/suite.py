"""The benchmark kernel suite (MiBench / Rodinia loop bodies).

The paper evaluates eleven loop kernels extracted from MiBench and Rodinia by
an LLVM pass.  Those exact DFGs are not redistributable here, so each kernel
is re-expressed in the front-end's loop language with the same computational
character (bit mixing for the SHA family, multiply-accumulate chains for
backprop, stencils for hotspot, table walks for patricia, …) and a size that
reproduces the paper's relative difficulty ordering: nw / srand / basicmath /
stringsearch are small, sha / gsm / bitcount / sha2 / hotspot are mid-sized,
and patricia / backprop are the large kernels that defeat the heuristics on a
2x2 fabric.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.dfg.graph import DFG
from repro.frontend import compile_loop


@dataclass(frozen=True)
class KernelSpec:
    """A benchmark kernel: name, loop source and provenance notes."""

    name: str
    suite: str
    description: str
    source: str


_KERNELS: dict[str, KernelSpec] = {}


def _register(name: str, suite: str, description: str, source: str) -> None:
    _KERNELS[name] = KernelSpec(name=name, suite=suite, description=description,
                                source=source)


# ----------------------------------------------------------------------
# Small kernels (low II everywhere)
# ----------------------------------------------------------------------
_register(
    "nw",
    "rodinia",
    "Needleman-Wunsch inner loop: three-way max of neighbouring scores.",
    """
    up = score[i] + gap
    left = score[i + 1] + gap
    diag = score[i + 2] + sub[i]
    best = up > left ? up : left
    best2 = best > diag ? best : diag
    out[i] = best2
    """,
)

_register(
    "srand",
    "mibench",
    "Linear congruential pseudo-random number generator step.",
    """
    seed = seed * 1103515245 + 12345
    out[i] = (seed >> 16) & 32767
    """,
)

_register(
    "basicmath",
    "mibench",
    "Cubic-solver style polynomial evaluation step.",
    """
    x = in[i]
    acc = ((a * x + b) * x + c) * x + d
    out[i] = acc
    """,
)

_register(
    "stringsearch",
    "mibench",
    "Boyer-Moore-Horspool style shift-table comparison step.",
    """
    ch = text[i]
    pat = pattern[i]
    diff = ch ^ pat
    miss = diff == 0 ? 0 : 1
    skip = skip + (miss << 1)
    out[i] = skip
    """,
)

# ----------------------------------------------------------------------
# Mid-sized kernels
# ----------------------------------------------------------------------
_register(
    "gsm",
    "mibench",
    "GSM LTP filtering: saturated multiply-accumulate over lag window.",
    """
    s0 = wt[i] * dp[i]
    s1 = wt[i + 1] * dp[i + 1]
    s2 = wt[i + 2] * dp[i + 2]
    acc0 = s0 + s1
    acc1 = acc0 + s2
    sat = acc1 > 32767 ? 32767 : acc1
    lo = 0 - 32768
    sat2 = sat < lo ? lo : sat
    out[i] = sat2
    """,
)

_register(
    "bitcount",
    "mibench",
    "Parallel population count (bit tricks).",
    """
    x = in[i]
    a = x - ((x >> 1) & 1431655765)
    b = (a & 858993459) + ((a >> 2) & 858993459)
    c = (b + (b >> 4)) & 252645135
    n = (c * 16843009) >> 24
    total = total + n
    out[i] = total
    """,
)

_register(
    "sha",
    "mibench",
    "SHA-1 round: rotate-xor mixing with round constant.",
    """
    a = state[i]
    b = state[i + 1]
    c = state[i + 2]
    d = state[i + 3]
    e = state[i + 4]
    f = (b & c) | ((b ^ 4294967295) & d)
    rot = (a << 5) | (a >> 27)
    t0 = rot + f
    t1 = t0 + e
    t2 = t1 + w[i]
    temp = t2 + 1518500249
    out[i] = temp
    bnew = (b << 30) | (b >> 2)
    out[i + 1] = bnew
    """,
)

_register(
    "hotspot",
    "rodinia",
    "Hotspot thermal stencil: weighted 5-point neighbourhood update.",
    """
    centre = temp[i]
    north = temp[i + 1]
    south = temp[i + 2]
    east = temp[i + 3]
    west = temp[i + 4]
    power_c = power[i]
    vertical = north + south - (centre << 1)
    horizontal = east + west - (centre << 1)
    v_term = vertical * ry
    h_term = horizontal * rx
    p_term = power_c + (amb - centre) * rz
    sum0 = v_term + h_term
    sum1 = sum0 + p_term
    delta = sum1 * step
    out[i] = centre + delta
    """,
)

_register(
    "sha2",
    "mibench",
    "SHA-256 style round: sigma functions and double word mixing.",
    """
    a = state[i]
    b = state[i + 1]
    c = state[i + 2]
    e = state[i + 3]
    f = state[i + 4]
    g = state[i + 5]
    h = state[i + 6]
    s1 = ((e >> 6) | (e << 26)) ^ ((e >> 11) | (e << 21))
    ch = (e & f) ^ ((e ^ 4294967295) & g)
    t1 = h + s1 + ch + k[i] + w[i]
    s0 = ((a >> 2) | (a << 30)) ^ ((a >> 13) | (a << 19))
    maj = (a & b) ^ (a & c) ^ (b & c)
    t2 = s0 + maj
    out[i] = t1 + t2
    out[i + 1] = t1
    """,
)

# ----------------------------------------------------------------------
# Large kernels (defeat the heuristics on tight fabrics)
# ----------------------------------------------------------------------
_register(
    "patricia",
    "mibench",
    "Patricia trie bit-index walk: mask extraction, comparisons and selects "
    "over two candidate child pointers.",
    """
    key = keys[i]
    bit = bits[i]
    mask0 = 1 << (bit & 31)
    probe = key & mask0
    go_right = probe == 0 ? 0 : 1
    left_child = childl[i]
    right_child = childr[i]
    next0 = go_right == 0 ? left_child : right_child
    key2 = keys[i + 1]
    bit2 = bits[i + 1]
    mask1 = 1 << (bit2 & 31)
    probe2 = key2 & mask1
    go_right2 = probe2 == 0 ? 0 : 1
    left2 = childl[i + 1]
    right2 = childr[i + 1]
    next1 = go_right2 == 0 ? left2 : right2
    match = (next0 ^ next1) == 0 ? 1 : 0
    found = found + match
    out[i] = next0
    out[i + 1] = next1
    """,
)

_register(
    "backprop",
    "rodinia",
    "Back-propagation weight adjustment: error-weighted multiply-accumulate "
    "over four unrolled connections plus momentum update.",
    """
    delta = deltas[i]
    w0 = weights[i]
    w1 = weights[i + 1]
    w2 = weights[i + 2]
    w3 = weights[i + 3]
    x0 = units[i]
    x1 = units[i + 1]
    x2 = units[i + 2]
    x3 = units[i + 3]
    g0 = delta * x0
    g1 = delta * x1
    g2 = delta * x2
    g3 = delta * x3
    m0 = prevw[i] * momentum
    m1 = prevw[i + 1] * momentum
    adj0 = (eta * g0) + m0
    adj1 = (eta * g1) + m1
    adj2 = eta * g2
    adj3 = eta * g3
    out[i] = w0 + adj0
    out[i + 1] = w1 + adj1
    out[i + 2] = w2 + adj2
    out[i + 3] = w3 + adj3
    err = err + g0
    """,
)


# ----------------------------------------------------------------------
# Scale kernels (beyond the paper's suite; stress big fabrics)
# ----------------------------------------------------------------------
# These are not part of the paper's eleven-kernel evaluation and therefore
# stay out of ``all_kernel_names()``; ``repro map --kernel`` and ``repro
# show --kernel`` offer them for big-fabric runs.
_register(
    "conv3x3",
    "scale",
    "3x3 convolution tap: nine loads, nine constant-weight multiplies and "
    "an eight-add reduction tree.",
    """
    p0 = img[i] * 1
    p1 = img[i + 1] * 2
    p2 = img[i + 2] * 1
    p3 = img[i + 3] * 2
    p4 = img[i + 4] * 4
    p5 = img[i + 5] * 2
    p6 = img[i + 6] * 1
    p7 = img[i + 7] * 2
    p8 = img[i + 8] * 1
    r0 = p0 + p1
    r1 = p2 + p3
    r2 = p4 + p5
    r3 = p6 + p7
    s0 = r0 + r1
    s1 = r2 + r3
    s2 = s0 + s1
    s3 = s2 + p8
    out[i] = s3 >> 4
    """,
)

_register(
    "fir16",
    "scale",
    "16-tap FIR filter with accumulator recurrence: sixteen loads, sixteen "
    "constant-coefficient multiplies, a fifteen-add reduction and a "
    "loop-carried running sum.",
    """
    t0 = x[i] * 3
    t1 = x[i + 1] * 7
    t2 = x[i + 2] * 11
    t3 = x[i + 3] * 17
    t4 = x[i + 4] * 23
    t5 = x[i + 5] * 29
    t6 = x[i + 6] * 37
    t7 = x[i + 7] * 41
    t8 = x[i + 8] * 43
    t9 = x[i + 9] * 47
    t10 = x[i + 10] * 53
    t11 = x[i + 11] * 59
    t12 = x[i + 12] * 61
    t13 = x[i + 13] * 67
    t14 = x[i + 14] * 71
    t15 = x[i + 15] * 73
    a0 = t0 + t1
    a1 = t2 + t3
    a2 = t4 + t5
    a3 = t6 + t7
    a4 = t8 + t9
    a5 = t10 + t11
    a6 = t12 + t13
    a7 = t14 + t15
    b0 = a0 + a1
    b1 = a2 + a3
    b2 = a4 + a5
    b3 = a6 + a7
    c0 = b0 + b1
    c1 = b2 + b3
    tap_sum = c0 + c1
    acc = acc + tap_sum
    out[i] = acc
    """,
)


# ----------------------------------------------------------------------
# Public accessors
# ----------------------------------------------------------------------
def all_kernel_names() -> list[str]:
    """Names of the benchmark kernels, in the paper's presentation order."""
    order = [
        "sha", "gsm", "patricia", "bitcount", "backprop", "nw", "srand",
        "hotspot", "sha2", "basicmath", "stringsearch",
    ]
    return [name for name in order if name in _KERNELS]


def scale_kernel_names() -> list[str]:
    """Names of the extra scale kernels (not part of the paper's suite)."""
    return sorted(
        name for name, spec in _KERNELS.items() if spec.suite == "scale"
    )


def get_kernel_spec(name: str) -> KernelSpec:
    """Look up a kernel's specification (source text and provenance)."""
    try:
        return _KERNELS[name]
    except KeyError as exc:
        available = all_kernel_names() + scale_kernel_names()
        raise KeyError(
            f"unknown kernel {name!r}; available: {', '.join(available)}"
        ) from exc


@lru_cache(maxsize=None)
def get_kernel(name: str) -> DFG:
    """Compile a benchmark kernel to its DFG (cached)."""
    spec = get_kernel_spec(name)
    return compile_loop(spec.source, name=spec.name)


def all_kernels() -> dict[str, DFG]:
    """All benchmark kernels compiled to DFGs."""
    return {name: get_kernel(name) for name in all_kernel_names()}
