/* Lower band Cholesky factorization, LAPACK dpbtf2 with uplo = 'L'.

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

   Returns dpbtf2's info: 0, or c + 1 when the pivot of column c is not
   positive (a NaN pivot passes, as in dpbtf2).  After a failure the
   columns past the failed one keep their input values. */

#include <math.h>
#include <string.h>

#define LANES 4
#define MAX_KD 64
#define MAX_BLOCKS ((MAX_KD + LANES) / LANES)
#define INLINE static inline __attribute__((always_inline))

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

/* Columns c0 ... c1 - 1 in the plain loop; dpbtf2's info. */
static int edge(double *ab, long n, long kd, long c0, long c1)
{
    long ld = kd + 1;
    for (long c = c0; c < c1; c++) {
        double *col = ab + c * ld;
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
   a constant after inlining; dpbtf2's info. */
INLINE int interior(double *ab, long kd, long c0, long c1, const int blocks)
{
    long ld = kd + 1, tail = ld - (blocks - 1) * LANES;
    for (long c = c0; c < c1; c++) {
        double *col = ab + c * ld;
        vec acc[MAX_BLOCKS];
#pragma GCC unroll 17
        for (int b = 0; b < blocks; b++)
            acc[b] = load(col + b * LANES);
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

#define BLOCKS(k) case k: info = interior(ab, kd, kd, n - kd, k); break;

int tgss_band_cholesky(double *ab, int n_, int kd_)
{
    long n = n_, kd = kd_;
    if (kd < 3 || kd > MAX_KD || n < 2 * kd)
        return edge(ab, n, kd, 0, n);
    int info = edge(ab, n, kd, 0, kd);
    if (info)
        return info;
    switch ((kd + LANES) / LANES) {
    BLOCKS(1) BLOCKS(2) BLOCKS(3) BLOCKS(4) BLOCKS(5) BLOCKS(6) BLOCKS(7)
    BLOCKS(8) BLOCKS(9) BLOCKS(10) BLOCKS(11) BLOCKS(12) BLOCKS(13)
    BLOCKS(14) BLOCKS(15) BLOCKS(16) BLOCKS(17)
    }
    if (info)
        return info;
    return edge(ab, n, kd, n - kd, n);
}
