"""Optional C kernel for F_p arithmetic, built on demand with gcc/cc.

The hot loops of the brute-force oracle and of every substitution into a
curve run over a 62-bit prime field: Gaussian eliminations on matrices with a
few hundred rows/columns, the products and sums of the dense powers u^b
of a parametrization, and the products of sparse forms.  CPython is two
orders of magnitude too slow for the eliminations, so we compile a few small
C helpers at first use (cached under ~/.cache) and call them through ctypes:

  * fp_accumulate absorbs a batch of rows into a pivot block in echelon
    form (forward elimination, with early stop): enough for ranks and pivot
    columns;
  * fp_back_substitute brings such a block to its canonical RREF, for a
    caller that reads the RREF;
  * fp_kernel_rows writes the RREF kernel rows of a reduced block, one per
    free column;
  * fp_convolve multiplies two dense residue vectors (one power u^b from
    u^(b - e_k) and u_k);
  * fp_shifted_sum adds residue vectors times scalars, each at its own
    offset (a substitution G(T, u(T)): c u^b at offset a1 per term);
  * fp_order_basis computes an order basis of the powers (u^b), |b| = j,
    by iterative M-Basis, keeping only residuals, degrees and leading
    coefficient rows: the oracle's tower E_{0..imax, j} (oracle.py);
  * fp_sum_of_products is poly._sum_of_products over F_p: it reads the
    coefficient dicts of a list of pairs (x, y) with PyDict_Next and returns
    the dict of the sum of the x*y, keys in first appearance as in the
    Python loop.  A product key is one hash-table lookup of key1 + key2.

All of them use delayed modular reduction (the FFLAS/FFPACK scheme of Dumas,
Gautier, Giorgi & Pernet).  A product of two residues is below 2^124 for
p < 2^62, so a 128-bit accumulator takes 15 of them on top of a residue
before it must be reduced mod p: it reduces once per 15 products, not once
per product.  fp_convolve and fp_sum_of_products keep one such accumulator
per output entry; fp_shifted_sum and fp_accumulate keep a row of them, as
hi:lo words, and flush the row once per 15 terms or row operations;
fp_order_basis keeps one such row per residual.

The elimination is left-looking and its back-substitution lazy.  Phase 1
(fp_accumulate) reduces each incoming row against the block in insertion
order, in the accumulator, and appends it normalized; earlier rows are not
touched.  Phase 2 (fp_back_substitute) runs on the first read of the RREF
after a batch, not once per batch: last row first, each row against the
rows after it, skipping the leading rows an earlier phase 2 already reduced
against each other.  A rank question never pays for it.  Every order gives
the same block as eager Gauss-Jordan: a reduced incoming row is the row
minus the one combination of block rows that matches it on the pivot
columns, and the block rows span the same space, reduced or not.  Every row
of the block is zero left of its pivot, so it is swept from there.

linalg.py hands this kernel every F_p elimination with p < P_BOUND (so the
images mod primes behind every Q elimination), poly.PowerTable every F_p
power and substitution, and poly._sum_of_products every F_p product.
Without a compiler or the interpreter's headers (the source includes
Python.h), or when the cache directory cannot be written, those go to the
pure-Python paths (linalg's generic core, PowerTable's Kronecker products,
the Python product loop), as F_p with p >= P_BOUND and Q always do.  Both
paths give the identical results, which the tests cross-check.  A failed
build is recorded in the cache, so later starts do not try it again
(_build).

The library is loaded with ctypes.PyDLL, not CDLL: a call holds the GIL,
which fp_sum_of_products needs to touch Python objects, and ctypes checks
the error flag after every call, so a TypeError or OverflowError that the
kernel sets on a malformed argument is raised in the caller.

Set REESCURVE_NO_NATIVE=1 to force the pure-Python paths.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import sys

P_BOUND = 1 << 62   # the kernel's residues and accumulators need p below this

_SOURCE = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

typedef unsigned __int128 u128;

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

/* Residue of the 128-bit accumulator entry hi:lo. */
static inline uint64_t red128(uint64_t hi, uint64_t lo, uint64_t p)
{
    if (!hi) return lo < p ? lo : lo % p;
    return (uint64_t)((((u128)hi << 64) | lo) % p);
}

/* One row being reduced: entry k is the 128-bit value hi[k]:lo[k].  Columns
   below `dirty` hold residues; `pending` products were added since the last
   flush.  A flush happens before the 16th product, so an entry never exceeds
   (p - 1) + 15 (p - 1)^2 < 2^128, which holds for p < 2^62. */
typedef struct {
    uint64_t *lo, *hi;
    long ncols, dirty;
    int pending;
    uint64_t p;
} acc_t;

static void acc_load(acc_t *a, const uint64_t *row)
{
    memcpy(a->lo, row, (size_t)a->ncols * sizeof(uint64_t));
    a->dirty = a->ncols;
    a->pending = 0;
}

/* Reduce n accumulator entries hi:lo to their residues (hi becomes 0). */
static void reduce_words(uint64_t *lo, uint64_t *hi, long n, uint64_t p)
{
    for (long k = 0; k < n; ++k) {
        lo[k] = red128(hi[k], lo[k], p);
        hi[k] = 0;
    }
}

/* Reduce every entry from `dirty` on to its residue. */
static void acc_flush(acc_t *a)
{
    reduce_words(a->lo + a->dirty, a->hi + a->dirty, a->ncols - a->dirty, a->p);
    a->dirty = a->ncols;
    a->pending = 0;
}

/* Clear the accumulator at column pc with the pivot row `row` (1 at pc, 0
   at every other pivot column of the block), which is zero left of pc. */
static inline void acc_eliminate(acc_t *a, const uint64_t *row, long pc)
{
    uint64_t c = red128(a->hi[pc], a->lo[pc], a->p);
    if (!c) return;
    if (a->pending == 15) acc_flush(a);
    c = a->p - c;
    uint64_t *lo = a->lo, *hi = a->hi;
    for (long k = pc; k < a->ncols; ++k) {
        u128 x = (u128)c * row[k] + lo[k];
        lo[k] = (uint64_t)x;
        hi[k] += (uint64_t)(x >> 64);
    }
    a->pending++;
    if (pc < a->dirty) a->dirty = pc;
}

/* Absorb `nrows` rows (row-major, ncols wide, residues) into the pivot block
   `piv` (pivot columns in pivcols), forward only: each row is reduced
   against the block in insertion order in the accumulator, normalized and
   appended; earlier rows are left alone.  In insertion order row t is zero
   at the pivot columns of the rows before it, so clearing column pivcols[t]
   keeps the columns cleared so far, whether or not the rows are also
   reduced against the rows after them (fp_back_substitute).  A row of the
   block is zero left of its pivot, so it is swept from its pivot column on.
   `scratch` holds 2 * ncols words.  Stops early once the rank reaches `stop`
   (pass stop < 0 to disable).  Returns the new pivot count, or -1 when the
   block would outgrow its `cap` rows. */
long fp_accumulate(uint64_t *piv, long *pivcols, long npiv, long cap,
                   const uint64_t *rows, long nrows, long ncols,
                   uint64_t p, long stop, uint64_t *scratch)
{
    /* every flush leaves hi all zero, so it is cleared once per call */
    acc_t a = {scratch, scratch + ncols, ncols, ncols, 0, p};
    memset(a.hi, 0, (size_t)ncols * sizeof(uint64_t));
    for (long r = 0; r < nrows; ++r) {
        if (stop >= 0 && npiv >= stop) break;
        acc_load(&a, rows + r * ncols);
        for (long t = 0; t < npiv; ++t)
            acc_eliminate(&a, piv + t * ncols, pivcols[t]);
        acc_flush(&a);
        long lead = -1;
        for (long k = 0; k < ncols; ++k)
            if (a.lo[k]) { lead = k; break; }
        if (lead < 0) continue;
        if (npiv >= cap) return -1;   /* caller must grow the buffer */
        uint64_t inv = invmod(a.lo[lead], p);
        uint64_t *w = piv + npiv * ncols;
        memset(w, 0, (size_t)lead * sizeof(uint64_t));
        for (long k = lead; k < ncols; ++k)
            w[k] = (uint64_t)((u128)a.lo[k] * inv % p);
        pivcols[npiv++] = lead;
    }
    return npiv;
}

/* Bring the block that fp_accumulate built to its RREF: one
   back-substitution, last row first, each row against the rows after it,
   which are final by then.  The first `nred` rows are already reduced
   against each other (an earlier back-substitution), so they are reduced
   only against the rows from nred on.  `scratch` holds 2 * ncols words. */
void fp_back_substitute(uint64_t *piv, const long *pivcols, long npiv, long nred,
                        long ncols, uint64_t p, uint64_t *scratch)
{
    acc_t a = {scratch, scratch + ncols, ncols, ncols, 0, p};
    memset(a.hi, 0, (size_t)ncols * sizeof(uint64_t));
    for (long t = npiv - 1; t >= 0; --t) {
        uint64_t *w = piv + t * ncols;
        long s = t + 1 > nred ? t + 1 : nred;
        while (s < npiv && !w[pivcols[s]]) s++;
        if (s == npiv) continue;
        acc_load(&a, w);
        for (; s < npiv; ++s)
            acc_eliminate(&a, piv + s * ncols, pivcols[s]);
        acc_flush(&a);
        memcpy(w, a.lo, (size_t)ncols * sizeof(uint64_t));
    }
}

/* out = a * b mod p, na + nb - 1 entries: one 128-bit accumulator per entry,
   reduced before its 16th product as in acc_eliminate. */
void fp_convolve(const uint64_t *a, long na, const uint64_t *b, long nb,
                 uint64_t p, uint64_t *out)
{
    for (long k = 0; k < na + nb - 1; ++k) {
        long i = k < nb ? 0 : k - nb + 1, end = k < na ? k : na - 1;
        u128 acc = 0;
        for (int pending = 0; i <= end; ++i, ++pending) {
            if (pending == 15) { acc %= p; pending = 0; }
            acc += (u128)a[i] * b[k - i];
        }
        out[k] = red128((uint64_t)(acc >> 64), (uint64_t)acc, p);
    }
}

/* out[off[t] + k] += coef[t] * src[t][k] mod p for t < nterms, k < len:
   out holds nout residues and is the low word of a row of accumulators whose
   high words are `scratch` (nout words), flushed before the 16th term. */
void fp_shifted_sum(uint64_t *out, long nout, const uint64_t *const *src, long len,
                    const long *off, const uint64_t *coef, long nterms,
                    uint64_t p, uint64_t *scratch)
{
    acc_t a = {out, scratch, nout, nout, 0, p};
    memset(scratch, 0, (size_t)nout * sizeof(uint64_t));
    for (long t = 0; t < nterms; ++t) {
        if (a.pending == 15) acc_flush(&a);
        uint64_t c = coef[t], *lo = out + off[t], *hi = scratch + off[t];
        const uint64_t *s = src[t];
        for (long k = 0; k < len; ++k) {
            u128 x = (u128)c * s[k] + lo[k];
            lo[k] = (uint64_t)x;
            hi[k] += (uint64_t)(x >> 64);
        }
        a.pending++;
        if (off[t] < a.dirty) a.dirty = off[t];
    }
    acc_flush(&a);
}

/* Kernel rows of the pivot block `piv` (npiv rows, ncols wide): row r has 1
   at freecols[r] and -piv[t][freecols[r]] at pivcols[t].  `out` holds nfree
   zeroed rows, ncols wide. */
void fp_kernel_rows(const uint64_t *piv, const long *pivcols, long npiv,
                    long ncols, const long *freecols, long nfree,
                    uint64_t *out, uint64_t p)
{
    for (long r = 0; r < nfree; ++r) {
        uint64_t *w = out + r * ncols;
        long f = freecols[r];
        w[f] = 1;
        for (long t = 0; t < npiv; ++t) {
            uint64_t c = piv[t * ncols + f];
            if (c) w[pivcols[t]] = p - c;
        }
    }
}

/* Iterative M-Basis (Giorgi, Jeannerod & Villard, ISSAC 2003) of the column
   U of n polynomials at order sigma, shift 0, keeping only the rows of
   degree <= imax.  Row r of the basis P is never stored: only its residual
   P_r U mod t^sigma (row r of res, lo words, with the high words of its
   accumulators in hi; coefficient m sits at position m - off[r], so that
   multiplying by t is off[r] += 1), its degree delta[r] and its leading
   coefficient row lc (n x n).  On entry res holds U (residues, zero padded
   to sigma); hi, lc, delta and work (3n longs) are written here.

   Step k takes as pivot the live row with a nonzero coefficient k and the
   least degree (the first one on a tie), clears coefficient k of every
   other live row with it (and their lc rows when their degrees are equal),
   then multiplies it by t.  A row whose degree passes imax is dropped: from
   then on it could only be the pivot for rows of degree above imax.  A row
   takes 15 products between flushes, as in acc_eliminate; a pivot is
   flushed before it is read.  On return the rows of degree <= imax satisfy
   P_r U = 0, and delta[r] = imax + 1 marks the others. */
void fp_order_basis(uint64_t *res, uint64_t *hi, long n, long sigma, long imax,
                    uint64_t p, uint64_t *lc, long *delta, long *work)
{
    long *off = work, *pending = work + n, *live = work + 2 * n, nlive = n;
    memset(hi, 0, (size_t)(n * sigma) * sizeof(uint64_t));
    memset(lc, 0, (size_t)(n * n) * sizeof(uint64_t));
    for (long r = 0; r < n; ++r) {
        lc[r * n + r] = 1;
        delta[r] = off[r] = pending[r] = 0;
        live[r] = r;
    }
    for (long k = 0; k < sigma && nlive; ++k) {
        long piv = -1, len = sigma - k - 1;
        for (long s = 0; s < nlive; ++s) {
            long r = live[s], at = r * sigma + k - off[r];
            res[at] = red128(hi[at], res[at], p);
            hi[at] = 0;
            if (res[at] && (piv < 0 || delta[r] < delta[piv])) piv = r;
        }
        if (piv < 0) continue;
        long pat = piv * sigma + k - off[piv];
        uint64_t *pl = res + pat + 1;
        reduce_words(pl, hi + pat + 1, len, p);
        pending[piv] = 0;
        uint64_t inv = invmod(res[pat], p);
        for (long s = 0; s < nlive; ++s) {
            long r = live[s], at = r * sigma + k - off[r];
            if (r == piv || !res[at]) continue;
            uint64_t c = (uint64_t)((u128)res[at] * inv % p);
            res[at] = 0;
            uint64_t *rl = res + at + 1, *rh = hi + at + 1;
            if (pending[r] == 15) {
                reduce_words(rl, rh, len, p);
                pending[r] = 0;
            }
            for (long m = 0; m < len; ++m) {
                u128 x = (u128)(p - c) * pl[m] + rl[m];
                rl[m] = (uint64_t)x;
                rh[m] += (uint64_t)(x >> 64);
            }
            pending[r]++;
            if (delta[r] == delta[piv]) {
                uint64_t *a = lc + r * n, *b = lc + piv * n;
                for (long t = 0; t < n; ++t)
                    if (b[t]) a[t] = (uint64_t)(((u128)(p - c) * b[t] + a[t]) % p);
            }
        }
        off[piv]++;
        if (++delta[piv] > imax) {
            long s = 0;
            while (live[s] != piv) ++s;
            for (--nlive; s < nlive; ++s) live[s] = live[s + 1];
        }
    }
}

/* One term of a coefficient dict: its key and its value's residue. */
typedef struct { uint64_t key, res; } term_t;

/* The terms of the dict d, in its order, into t (room for cap): keys are
   ints below 2^63, so that a sum of two fits a word; values are ints that
   fit a signed word, reduced mod p.  Returns the count, or -1 with
   TypeError or OverflowError set. */
static Py_ssize_t read_terms(PyObject *d, term_t *t, Py_ssize_t cap, uint64_t p)
{
    Py_ssize_t pos = 0, n = 0;
    PyObject *k, *v;
    while (n < cap && PyDict_Next(d, &pos, &k, &v)) {
        if (!PyLong_Check(k) || !PyLong_Check(v)) {
            PyErr_SetString(PyExc_TypeError, "coefficient dicts map int keys to int values");
            return -1;
        }
        unsigned long long key = PyLong_AsUnsignedLongLong(k);
        if (key == (unsigned long long)-1 && PyErr_Occurred()) return -1;
        if (key >> 63) {
            PyErr_SetString(PyExc_OverflowError, "key does not fit 63 bits");
            return -1;
        }
        long long c = PyLong_AsLongLong(v);
        if (c == -1 && PyErr_Occurred()) return -1;
        int64_t r = c % (int64_t)p;
        t[n].key = key;
        t[n++].res = r < 0 ? (uint64_t)r + p : (uint64_t)r;
    }
    return n;
}

/* One key of the product: its 128-bit accumulator hi:lo and the products
   added since its last reduction, flushed before the 16th as in acc_t. */
typedef struct { uint64_t key, lo, hi; uint32_t pending; } entry_t;

/* The sum of x*y over `pairs`, a list of (x, y) tuples of coefficient dicts
   {key: value}, values in (-p, p), as a new dict of residues mod p, zero
   terms dropped: poly._sum_of_products over F_p.  The shorter operand is
   the outer loop and keys enter in first appearance, as in the Python loop,
   so the key order is the same.  Keys of the product are looked up in an
   open-addressing table (linear probing) of at least 2 sum |x||y| slots
   that holds the index of each key's entry; the entries sit in first
   appearance order.  Returns NULL with TypeError, OverflowError, ValueError
   or MemoryError set on a bad argument. */
PyObject *fp_sum_of_products(PyObject *pairs, uint64_t p)
{
    if (p < 2 || p >> 62) {
        PyErr_SetString(PyExc_ValueError, "modulus outside [2, 2^62)");
        return NULL;
    }
    if (!PyList_Check(pairs)) {
        PyErr_SetString(PyExc_TypeError, "pairs must be a list");
        return NULL;
    }
    Py_ssize_t npairs = PyList_GET_SIZE(pairs), nterm = 0;
    size_t nprod = 0;
    for (Py_ssize_t i = 0; i < npairs; ++i) {
        PyObject *pr = PyList_GET_ITEM(pairs, i);
        if (!PyTuple_Check(pr) || PyTuple_GET_SIZE(pr) != 2
            || !PyDict_Check(PyTuple_GET_ITEM(pr, 0)) || !PyDict_Check(PyTuple_GET_ITEM(pr, 1))) {
            PyErr_SetString(PyExc_TypeError, "each pair must be a tuple of two dicts");
            return NULL;
        }
        Py_ssize_t nx = PyDict_GET_SIZE(PyTuple_GET_ITEM(pr, 0));
        Py_ssize_t ny = PyDict_GET_SIZE(PyTuple_GET_ITEM(pr, 1));
        if (nx + ny > nterm) nterm = nx + ny;
        if (ny && (size_t)nx > ((size_t)1 << 30) / (size_t)ny) return PyErr_NoMemory();
        nprod += (size_t)nx * (size_t)ny;
        if (nprod > (size_t)1 << 30) return PyErr_NoMemory();
    }
    PyObject *out = NULL;
    int bits = 1;
    while (((size_t)1 << bits) < 2 * nprod) ++bits;
    size_t mask = ((size_t)1 << bits) - 1, n = 0;
    uint32_t *slot = calloc(mask + 1, sizeof *slot);     /* 0 empty, else 1 + entry */
    entry_t *e = malloc((nprod ? nprod : 1) * sizeof *e);
    term_t *t = malloc((nterm ? nterm : 1) * sizeof *t);
    if (!slot || !e || !t) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < npairs; ++i) {
        PyObject *pr = PyList_GET_ITEM(pairs, i);
        Py_ssize_t nx = read_terms(PyTuple_GET_ITEM(pr, 0), t, nterm, p);
        if (nx < 0) goto done;
        Py_ssize_t ny = read_terms(PyTuple_GET_ITEM(pr, 1), t + nx, nterm - nx, p);
        if (ny < 0) goto done;
        term_t *x = t, *y = t + nx;
        if (nx > ny) {
            x = t + nx; y = t;
            Py_ssize_t tmp = nx; nx = ny; ny = tmp;
        }
        for (Py_ssize_t a = 0; a < nx; ++a) {
            for (Py_ssize_t b = 0; b < ny; ++b) {
                uint64_t k = x[a].key + y[b].key;
                size_t h = (size_t)((k * 0x9E3779B97F4A7C15ull) >> (64 - bits));
                while (slot[h] && e[slot[h] - 1].key != k) h = (h + 1) & mask;
                entry_t *s;
                if (slot[h]) {
                    s = e + slot[h] - 1;
                } else {
                    s = e + n;
                    slot[h] = (uint32_t)++n;
                    s->key = k;
                    s->lo = s->hi = 0;
                    s->pending = 0;
                }
                if (s->pending == 15) {
                    s->lo = red128(s->hi, s->lo, p);
                    s->hi = 0;
                    s->pending = 0;
                }
                u128 v = (u128)x[a].res * y[b].res + s->lo;
                s->lo = (uint64_t)v;
                s->hi += (uint64_t)(v >> 64);
                s->pending++;
            }
        }
    }
    out = PyDict_New();
    for (size_t i = 0; out && i < n; ++i) {
        uint64_t r = red128(e[i].hi, e[i].lo, p);
        if (!r) continue;
        PyObject *k = PyLong_FromUnsignedLongLong(e[i].key);
        PyObject *v = k ? PyLong_FromUnsignedLongLong(r) : NULL;
        if (!v || PyDict_SetItem(out, k, v) < 0)
            Py_CLEAR(out);
        Py_XDECREF(k);
        Py_XDECREF(v);
    }
done:
    free(slot);
    free(e);
    free(t);
    return out;
}
"""


def _build() -> str | None:
    """Path of the compiled kernel, compiling it into the cache on first use;
    None when no compiler works or the cache directory is unusable.

    A build is named fprref-<abi>-<tag>.so, the tag hashing the ABI and the
    source.  A failed build leaves the marker fprref-<abi>-<tag>.failed, so
    later starts fall back to Python at once instead of failing again; it
    holds the compilers' errors, and deleting it retries the build.
    Writing either file deletes the other builds and markers of that ABI,
    which no start of this source loads, and the builds named before the
    ABI was part of the name."""
    # the kernel includes Python.h, so a build serves one interpreter ABI
    abi = sys.implementation.cache_tag + sys.abiflags
    tag = hashlib.sha256((abi + _SOURCE).encode()).hexdigest()[:16]
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    outdir = os.path.join(cache, "reescurve")
    sopath = os.path.join(outdir, f"fprref-{abi}-{tag}.so")
    failpath = os.path.join(outdir, f"fprref-{abi}-{tag}.failed")
    if os.path.exists(sopath):
        return sopath
    if os.path.exists(failpath):
        return None
    import subprocess   # only a build needs these, not loading a cached kernel
    import sysconfig
    import tempfile

    include = sysconfig.get_paths()["include"]
    try:
        os.makedirs(outdir, exist_ok=True)
        # compile next to the target, so the final rename stays in one directory
        with tempfile.TemporaryDirectory(dir=outdir) as tmp:
            cpath = os.path.join(tmp, "fprref.c")
            with open(cpath, "w") as fh:
                fh.write(_SOURCE)
            tmpso = os.path.join(tmp, "fprref.so")
            errors = []
            for cc in ("cc", "gcc", "clang"):
                try:
                    subprocess.run(
                        [cc, "-O2", "-shared", "-fPIC", "-I", include, "-o", tmpso, cpath],
                        check=True,
                        capture_output=True,
                        timeout=120,
                    )
                except (OSError, subprocess.SubprocessError) as exc:
                    stderr = getattr(exc, "stderr", None) or b""
                    errors.append(f"{cc}: {exc}\n{stderr.decode(errors='replace')}")
                    continue
                os.replace(tmpso, sopath)
                _prune(outdir, abi, sopath)
                return sopath
        with open(failpath, "w") as fh:
            fh.write("\n".join(errors))
        _prune(outdir, abi, failpath)
    except OSError:
        pass        # the cache directory is unusable: no kernel
    return None


def _prune(outdir, abi, keep):
    """Delete the kernel builds and failure markers in outdir for `abi`,
    and the builds named without an ABI, except the file `keep`."""
    import re

    stale = re.compile(rf"fprref-(?:{re.escape(abi)}-)?[0-9a-f]+\.(?:so|failed)")
    for name in os.listdir(outdir):
        path = os.path.join(outdir, name)
        if stale.fullmatch(name) and path != keep:
            try:
                os.remove(path)
            except OSError:
                pass    # removed by a concurrent start, or not ours to remove


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
        # PyDLL: every call holds the GIL and raises the error a call sets
        lib = ctypes.PyDLL(path)
    except OSError:
        _failed = True
        return None
    # every array argument is an address (array.buffer_info()[0])
    vp, c_long, c_u64 = ctypes.c_void_p, ctypes.c_long, ctypes.c_uint64
    lib.fp_accumulate.restype = c_long
    lib.fp_accumulate.argtypes = [
        vp, vp, c_long, c_long, vp, c_long, c_long, c_u64, c_long, vp,
    ]
    lib.fp_back_substitute.restype = None
    lib.fp_back_substitute.argtypes = [vp, vp, c_long, c_long, c_long, c_u64, vp]
    lib.fp_kernel_rows.restype = None
    lib.fp_kernel_rows.argtypes = [vp, vp, c_long, c_long, vp, c_long, vp, c_u64]
    lib.fp_convolve.restype = None
    lib.fp_convolve.argtypes = [vp, c_long, vp, c_long, c_u64, vp]
    lib.fp_shifted_sum.restype = None
    lib.fp_shifted_sum.argtypes = [vp, c_long, vp, c_long, vp, vp, c_long, c_u64, vp]
    lib.fp_order_basis.restype = None
    lib.fp_order_basis.argtypes = [vp, vp, c_long, c_long, c_long, c_u64, vp, vp, vp]
    lib.fp_sum_of_products.restype = ctypes.py_object     # a new reference
    lib.fp_sum_of_products.argtypes = [ctypes.py_object, c_u64]
    _lib = lib
    return _lib
