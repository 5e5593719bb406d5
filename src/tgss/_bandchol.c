/* Lower band Cholesky factorization, LAPACK dpbtf2 with uplo = 'L'.

   ab holds an n x n SPD matrix in lower band storage, column-major with
   leading dimension kd + 1: ab[d + j (kd + 1)] = A[j + d, j].  It is
   overwritten by the factor L with A = L L^T.  The result is dpbtf2's:
   column j is scaled by 1 / sqrt(pivot) as dscal does, and every entry of
   the trailing triangle gets the updates of the columns before it in
   increasing column order, each one multiply-subtract, as dsyr's axpy
   gives it, skipping a column whose multiplier is zero.  The columns go
   in pairs, so the trailing triangle is read once for two updates.

   Returns dpbtf2's info: 0, or j + 1 when the pivot of column j is not
   positive (a NaN pivot passes, as in dpbtf2).  After a failure the
   columns past the failed one hold partial updates. */

#include <math.h>

/* Column step: the pivot's root, then the kn entries below it scaled by
   its reciprocal; 0 when the pivot is not positive. */
static int pivot(double *col, long kn)
{
    if (col[0] <= 0.0)
        return 0;
    double ajj = sqrt(col[0]), r = 1.0 / ajj;
    col[0] = ajj;
    for (long i = 1; i <= kn; i++)
        col[i] *= r;
    return 1;
}

int tgss_band_cholesky(double *ab, int n_, int kd_)
{
    long n = n_, kd = kd_, ld = kd + 1;
    for (long j = 0; j < n; j += 2) {
        double *c0 = ab + j * ld, *x0 = c0 + 1;
        long kn0 = kd < n - 1 - j ? kd : n - 1 - j;
        if (!pivot(c0, kn0))
            return (int)(j + 1);
        if (j + 1 == n)
            break;
        double *c1 = c0 + ld, *x1 = c1 + 1;
        long kn1 = kd < n - 2 - j ? kd : n - 2 - j;
        if (kn0 > 0 && x0[0] != 0.0) {
            double t = -x0[0];
            for (long i = 0; i < kn0; i++)
                c1[i] += t * x0[i];
        }
        if (!pivot(c1, kn1))
            return (int)(j + 2);
        for (long c = 0; c < kn1; c++) {
            double *y = c1 + (c + 1) * ld;
            double t0 = c + 1 < kn0 ? -x0[c + 1] : 0.0, t1 = -x1[c];
            long m0 = t0 != 0.0 ? kn0 - 1 - c : 0, m1 = t1 != 0.0 ? kn1 - c : 0;
            long both = m0 < m1 ? m0 : m1, i;
            const double *a0 = x0 + c + 1, *a1 = x1 + c;
            for (i = 0; i < both; i++)
                y[i] = (y[i] + t0 * a0[i]) + t1 * a1[i];
            for (i = both; i < m0; i++)
                y[i] += t0 * a0[i];
            for (i = both; i < m1; i++)
                y[i] += t1 * a1[i];
        }
    }
    return 0;
}
