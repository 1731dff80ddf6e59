"""Optional C kernel for F_p row reduction, built on demand with gcc/cc.

The hot loops of the brute-force oracle are Gaussian eliminations over a
62-bit prime field on matrices with a few hundred rows/columns.  CPython is
two orders of magnitude too slow for those, so we compile two small C helpers
at first use (cached under ~/.cache) and call them through ctypes:

  * fp_accumulate absorbs a batch of rows into a mutually reduced pivot
    block (incremental canonical RREF, with early stop);
  * fp_kernel_rows writes the RREF kernel rows of such a block, one per free
    column, with their columns sent through an index map (the oracle's
    monomial-multiplication shifts).

linalg.py hands this kernel every F_p problem with p < 2^62.  When no
compiler is available those go to its packed pure-Python core instead; Q and
F_p with p >= 2^62 always run on its field-generic core.  Both F_p paths
produce the identical canonical RREF and kernel rows, which the test suite
cross-checks.

Set REESCURVE_NO_NATIVE=1 to force the pure-Python path.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile

_SOURCE = r"""
#include <stdint.h>
#include <string.h>

typedef unsigned __int128 u128;

/* Barrett reduction of x < p^2 + p for any p with 2 <= p < 2^62.
   shift = bit length of p, magic = floor(2^(63+shift) / p) < 2^64. */
static inline uint64_t barrett(u128 x, uint64_t p, uint64_t magic, int shift)
{
    uint64_t q = (uint64_t)(((u128)(uint64_t)(x >> shift) * magic) >> 63);
    u128 r = x - (u128)q * p;
    while (r >= p) r -= p;
    return (uint64_t)r;
}

static uint64_t invmod(uint64_t a, uint64_t p)
{
    /* extended Euclid; a != 0 mod p, p prime */
    int64_t t = 0, newt = 1;
    uint64_t r = p, newr = a % p;
    while (newr != 0) {
        uint64_t q = r / newr;
        int64_t tmp_t = t - (int64_t)q * newt; t = newt; newt = tmp_t;
        uint64_t tmp_r = r - q * newr; r = newr; newr = tmp_r;
    }
    if (t < 0) t += (int64_t)p;
    return (uint64_t)t;
}

/* row := (row + c * other) mod p, on ncols entries */
static inline void addmul(uint64_t *row, const uint64_t *other, uint64_t c,
                          long ncols, uint64_t p, uint64_t magic, int shift)
{
    for (long k = 0; k < ncols; ++k) {
        u128 x = (u128)row[k] + (u128)c * other[k];
        row[k] = barrett(x, p, magic, shift);
    }
}

/* Incrementally absorb `nrows` rows (row-major, ncols wide) into the pivot
   block `piv` (mutually reduced rows, pivot columns in pivcols).  Stops early
   once the rank reaches `stop` (pass stop <= 0 to disable).  Returns the new
   pivot count, or -1 when the block would outgrow its `cap` rows. */
long fp_accumulate(uint64_t *piv, long *pivcols, long npiv, long cap,
                   uint64_t *rows, long nrows, long ncols,
                   uint64_t p, long stop)
{
    int shift = 0;
    while ((p >> shift) > 1) shift++;
    shift += 1;                       /* now 2^(shift-1) <= p < 2^shift */
    uint64_t magic = (uint64_t)((((u128)1) << (63 + shift)) / p);

    for (long r = 0; r < nrows; ++r) {
        if (stop > 0 && npiv >= stop) return npiv;
        uint64_t *w = rows + r * ncols;
        for (long t = 0; t < npiv; ++t) {
            uint64_t c = w[pivcols[t]];
            if (c) addmul(w, piv + t * ncols, p - c, ncols, p, magic, shift);
        }
        long lead = -1;
        for (long k = 0; k < ncols; ++k)
            if (w[k]) { lead = k; break; }
        if (lead < 0) continue;
        uint64_t inv = invmod(w[lead], p);
        for (long k = 0; k < ncols; ++k)
            w[k] = barrett((u128)w[k] * inv, p, magic, shift);
        for (long t = 0; t < npiv; ++t) {
            uint64_t c = piv[t * ncols + lead];
            if (c) addmul(piv + t * ncols, w, p - c, ncols, p, magic, shift);
        }
        if (npiv >= cap) return -1;   /* caller must grow the buffer */
        memcpy(piv + npiv * ncols, w, (size_t)ncols * sizeof(uint64_t));
        pivcols[npiv] = lead;
        npiv++;
    }
    return npiv;
}

/* Kernel rows of the pivot block `piv` (npiv rows, ncols wide): row r has 1
   at colmap[freecols[r]] and -piv[t][freecols[r]] at colmap[pivcols[t]].
   `out` holds nfree zeroed rows, width wide. */
void fp_kernel_rows(const uint64_t *piv, const long *pivcols, long npiv,
                    long ncols, const long *freecols, long nfree,
                    const long *colmap, uint64_t *out, long width, uint64_t p)
{
    for (long r = 0; r < nfree; ++r) {
        uint64_t *w = out + r * width;
        long f = freecols[r];
        w[colmap[f]] = 1;
        for (long t = 0; t < npiv; ++t) {
            uint64_t c = piv[t * ncols + f];
            if (c) w[colmap[pivcols[t]]] = p - c;
        }
    }
}
"""


def _build() -> str | None:
    tag = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    outdir = os.path.join(cache, "reescurve")
    os.makedirs(outdir, exist_ok=True)
    sopath = os.path.join(outdir, f"fprref-{tag}.so")
    if os.path.exists(sopath):
        return sopath
    with tempfile.TemporaryDirectory() as tmp:
        cpath = os.path.join(tmp, "fprref.c")
        with open(cpath, "w") as fh:
            fh.write(_SOURCE)
        tmpso = os.path.join(tmp, "fprref.so")
        for cc in ("cc", "gcc", "clang"):
            try:
                subprocess.run(
                    [cc, "-O2", "-shared", "-fPIC", "-o", tmpso, cpath],
                    check=True,
                    capture_output=True,
                    timeout=120,
                )
                os.replace(tmpso, sopath)
                return sopath
            except (OSError, subprocess.SubprocessError):
                continue
    return None


_lib = None
_failed = False


def get_kernel():
    """Return the loaded ctypes kernel, or None when unavailable/disabled."""
    global _lib, _failed
    if _lib is not None:
        return _lib
    if _failed or os.environ.get("REESCURVE_NO_NATIVE"):
        return None
    path = _build()
    if path is None:
        _failed = True
        return None
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        _failed = True
        return None
    u64p = ctypes.POINTER(ctypes.c_uint64)
    longp = ctypes.POINTER(ctypes.c_long)
    lib.fp_accumulate.restype = ctypes.c_long
    lib.fp_accumulate.argtypes = [
        u64p, longp, ctypes.c_long, ctypes.c_long,
        u64p, ctypes.c_long, ctypes.c_long,
        ctypes.c_uint64, ctypes.c_long,
    ]
    lib.fp_kernel_rows.restype = None
    lib.fp_kernel_rows.argtypes = [
        u64p, longp, ctypes.c_long, ctypes.c_long, longp, ctypes.c_long,
        longp, u64p, ctypes.c_long, ctypes.c_uint64,
    ]
    _lib = lib
    return _lib
