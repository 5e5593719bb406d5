/* The inverse-potential operator's compiled kernels: the lower band
   Cholesky factorization, and the weighted mass and the product of
   invpot.P1Pattern's offset form, one (n_offsets + 1, n) array per
   symmetric matrix.

   Lower band Cholesky factorization, LAPACK dpbtf2 with uplo = 'L'.

   ab holds an n x n SPD matrix in lower band storage, column-major with
   leading dimension kd + 1: ab[d + j (kd + 1)] = A[j + d, j].  It is
   overwritten by the factor L with A = L L^T.  The result is dpbtf2's,
   computed left-looking: column c is read once, gets the updates of the
   columns c - kd ... c - 1 before it in increasing column order, each
   entry one multiply-add as dsyr's axpy gives it, skipping a column whose
   multiplier L[c, p] is zero; then comes dpbtf2's pivot test and the
   scaling by 1 / sqrt(pivot), as dscal does.  Every entry thus sees
   dpbtf2's operations in dpbtf2's order.

   Interior columns, kd <= c <= n - 1 - kd, keep the column in vector
   accumulators of LANES = 4 doubles, at most 17 of them, on every host:
   an 8-lane form for AVX-512 factored kd = 50 no faster.  The update
   of column p = c - s covers the column's first kd + 1 - s rows, so it
   is a run of whole blocks and one block whose lanes past that count
   keep their value.  A block read starts inside one column and runs at
   most LANES - 1 entries past its end; with kd >= 3 no read of an
   interior column's step runs past the end of column c + 1, which
   exists.  The last block of column c is written back with the entries
   past the column as they were read.  The first and last kd columns,
   and every column when kd < 3 or kd > 64, go through a plain loop.

   rows, when not NULL, holds one flag per band row d = 0 ... kd, and the
   entries of an unflagged row are read as +0.0 whatever they hold: an
   interior column masks them out of its loads, so it stores nothing
   before it reads, and an edge column sets them to +0.0 in place first.
   The factor is then the one of the band with those rows zeroed.  NULL
   flags every row.

   Returns dpbtf2's info: 0, or c + 1 when the pivot of column c is not
   positive (a NaN pivot passes, as in dpbtf2).  After a failure the
   columns past the failed one keep their input values.

   The weighted mass and the product repeat the numpy forms of
   invpot.weighted_mass and P1Pattern.matvec operation for operation:
   each entry gets the same products and sums, in the same order,
   starting from the same +0.0.  Their loops run over the offsets
   outside and the nodes inside, as the numpy slice operations do, and
   they are compiled without contraction, as numpy's loops are, so that
   no product and sum fuse into one multiply-add.  The band factor keeps
   gcc's contraction: its bits are dpbtrf's with OpenBLAS's fused axpy. */

#include <math.h>
#include <stdint.h>
#include <string.h>

#define LANES 4
#define MAX_KD 64
#define MAX_BLOCKS ((MAX_KD + LANES) / LANES)
#define INLINE static inline __attribute__((always_inline))
#define EXACT __attribute__((optimize("fp-contract=off")))

typedef double vec __attribute__((vector_size(LANES * sizeof(double))));
typedef long long mask __attribute__((vector_size(LANES * sizeof(long long))));

static const mask lane = {0, 1, 2, 3};

INLINE vec load(const double *p)
{
    vec v;
    memcpy(&v, p, sizeof v);
    return v;
}

/* The lanes of a where m is set, of b elsewhere. */
INLINE vec blend(vec a, vec b, mask m)
{
    return (vec)(((mask)a & m) | ((mask)b & ~m));
}

/* Pivot of column c with its kn entries below: 0 when it is not positive,
   else its root, and the entries scaled by the root's reciprocal. */
INLINE int pivot(double *col, long kn)
{
    if (col[0] <= 0.0)
        return 0;
    double ajj = sqrt(col[0]), r = 1.0 / ajj;
    col[0] = ajj;
    for (long i = 1; i <= kn; i++)
        col[i] *= r;
    return 1;
}

/* Columns c0 ... c1 - 1 in the plain loop, each with its unflagged rows
   set to +0.0 first; dpbtf2's info. */
static int edge(double *ab, long n, long kd, long c0, long c1, const char *rows)
{
    long ld = kd + 1;
    for (long c = c0; c < c1; c++) {
        double *col = ab + c * ld;
        if (rows)
            for (long d = 0; d <= kd; d++)
                if (!rows[d])
                    col[d] = 0.0;
        long kn = kd < n - 1 - c ? kd : n - 1 - c;
        for (long s = c < kd ? c : kd; s >= 1; s--) {
            const double *x = col - s * ld + s;     /* column c - s from row c */
            if (x[0] == 0.0)
                continue;
            double t = -x[0];
            long m = kd - s < kn ? kd - s : kn;
            for (long d = 0; d <= m; d++)
                col[d] += t * x[d];
        }
        if (!pivot(col, kn))
            return (int)(c + 1);
    }
    return 0;
}

/* Interior columns c0 ... c1 - 1 with the column in `blocks` accumulators,
   a constant after inlining, each loaded through its lanes of keep;
   dpbtf2's info. */
INLINE int interior(double *ab, long kd, long c0, long c1, const mask *keep,
                    const int blocks)
{
    long ld = kd + 1, tail = ld - (blocks - 1) * LANES;
    for (long c = c0; c < c1; c++) {
        double *col = ab + c * ld;
        vec acc[MAX_BLOCKS];
#pragma GCC unroll 17
        for (int b = 0; b < blocks; b++)
            acc[b] = (vec)((mask)load(col + b * LANES) & keep[b]);
        /* Segment q: the columns c - s whose update covers len = kd + 1 - s
           rows with q * LANES < len <= (q + 1) * LANES, q whole blocks and
           len - q * LANES lanes of block q. */
#pragma GCC unroll 17
        for (int q = 0; q < blocks; q++) {
            long top = (q + 1) * LANES < kd ? (q + 1) * LANES : kd;
            for (long len = q * LANES + 1; len <= top; len++) {
                long s = kd + 1 - len;
                const double *x = col - s * ld + s;
                if (x[0] == 0.0)
                    continue;
                double t = -x[0];
#pragma GCC unroll 17
                for (int b = 0; b < q; b++)
                    acc[b] += t * load(x + b * LANES);
                acc[q] = blend(acc[q] + t * load(x + q * LANES), acc[q],
                               lane < len - q * LANES);
            }
        }
        double ajj = acc[0][0];
        if (ajj <= 0.0)
            return (int)(c + 1);
        ajj = sqrt(ajj);
        double r = 1.0 / ajj;
#pragma GCC unroll 17
        for (int b = 0; b < blocks; b++)
            acc[b] *= r;
        acc[0][0] = ajj;
#pragma GCC unroll 17
        for (int b = 0; b < blocks - 1; b++)
            memcpy(col + b * LANES, &acc[b], sizeof(vec));
        double *last = col + (blocks - 1) * LANES;
        vec v = blend(acc[blocks - 1], load(last), lane < tail);
        memcpy(last, &v, sizeof v);
    }
    return 0;
}

#define BLOCKS(k) case k: info = interior(ab, kd, kd, n - kd, keep, k); break;

int tgss_band_cholesky(double *ab, int n_, int kd_, const char *rows)
{
    long n = n_, kd = kd_;
    if (kd < 3 || kd > MAX_KD || n < 2 * kd)
        return edge(ab, n, kd, 0, n, rows);
    /* Row b LANES + l of a column is lane l of block b; the lanes past row
       kd belong to the next column, whose entries the last block writes
       back as it read them. */
    mask keep[MAX_BLOCKS];
    for (long b = 0; b < MAX_BLOCKS; b++)
        for (long l = 0; l < LANES; l++) {
            long d = b * LANES + l;
            keep[b][l] = !rows || d > kd || rows[d] ? -1 : 0;
        }
    int info = edge(ab, n, kd, 0, kd, rows);
    if (info)
        return info;
    switch ((kd + LANES) / LANES) {
    BLOCKS(1) BLOCKS(2) BLOCKS(3) BLOCKS(4) BLOCKS(5) BLOCKS(6) BLOCKS(7)
    BLOCKS(8) BLOCKS(9) BLOCKS(10) BLOCKS(11) BLOCKS(12) BLOCKS(13)
    BLOCKS(14) BLOCKS(15) BLOCKS(16) BLOCKS(17)
    }
    if (info)
        return info;
    return edge(ab, n, kd, n - kd, n, rows);
}

/* Offset r clamped into 0 ... n, so that no loop leaves the arrays. */
INLINE long offset(const intptr_t *offsets, long r, long n)
{
    long d = offsets[r];
    return d < 0 ? 0 : d > n ? n : d;
}

/* invpot.weighted_mass: M(w) of n nodes and n_offsets offsets from the
   pattern's edge form, both (n_offsets + 1, n) row-major with the
   diagonal in row 0 and offset r in row 1 + r: g = edge[0],
   beta[r] = edge[1 + r], diagonal = A[0] and lower[r] = A[1 + r].  With
   m = n - d for offset d = offsets[r]:

       diagonal[p + d] += beta[r, p] w[p],  r from n_offsets - 1 down to 0,
       diagonal[p] += beta[r, p] w[p + d],  r from 0 up, p < m,
       diagonal[p] += g[p] w[p],

   from diagonal = +0.0, and lower[r, p] = beta[r, p] w[p] + a with
   a = beta[r, p] w[p + d] for p < m and a = +0.0 past it.  Every offset
   lies in 1 ... n - 1; offset() keeps any other one inside the arrays. */
EXACT void tgss_weighted_mass(const double *restrict edge, const intptr_t *offsets,
                              int n_offsets, int n_, const double *restrict w,
                              double *restrict A)
{
    long n = n_;
    const double *restrict g = edge, *restrict beta = edge + n;
    double *restrict diagonal = A, *restrict lower = A + n;
    for (long p = 0; p < n; p++)
        diagonal[p] = 0.0;
    for (long r = n_offsets - 1; r >= 0; r--) {
        long d = offset(offsets, r, n);
        const double *restrict b = beta + r * n;
        for (long p = 0; p < n - d; p++)
            diagonal[p + d] += b[p] * w[p];
    }
    for (long r = 0; r < n_offsets; r++) {
        long d = offset(offsets, r, n);
        const double *restrict b = beta + r * n;
        double *restrict l = lower + r * n;
        for (long p = 0; p < n - d; p++) {
            double a = b[p] * w[p + d];
            diagonal[p] += a;
            l[p] = b[p] * w[p] + a;
        }
        for (long p = n - d; p < n; p++)
            l[p] = b[p] * w[p] + 0.0;
    }
    for (long p = 0; p < n; p++)
        diagonal[p] += g[p] * w[p];
}

/* P1Pattern.matvec: out = A x for the symmetric matrix A in the same
   (n_offsets + 1, n) form, diagonal = A[0] and lower[r] = A[1 + r].
   From out = +0.0, with m = n - d for offset d = offsets[r]:

       out[p + d] += lower[r, p] x[p],      r from n_offsets - 1 down to 0,
       out[p] += lower[r, p] x[p + d],      r from 0 up, p < m,
       out[p] += diagonal[p] x[p]. */
EXACT void tgss_matvec(const double *restrict A, const intptr_t *offsets, int n_offsets,
                       int n_, const double *restrict x, double *restrict out)
{
    long n = n_;
    const double *restrict diagonal = A, *restrict lower = A + n;
    for (long p = 0; p < n; p++)
        out[p] = 0.0;
    for (long r = n_offsets - 1; r >= 0; r--) {
        long d = offset(offsets, r, n);
        const double *restrict l = lower + r * n;
        for (long p = 0; p < n - d; p++)
            out[p + d] += l[p] * x[p];
    }
    for (long r = 0; r < n_offsets; r++) {
        long d = offset(offsets, r, n);
        const double *restrict l = lower + r * n;
        for (long p = 0; p < n - d; p++)
            out[p] += l[p] * x[p + d];
    }
    for (long p = 0; p < n; p++)
        out[p] += diagonal[p] * x[p];
}
