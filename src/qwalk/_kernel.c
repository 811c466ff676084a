/*
 * Compiled event loop of qwalk.network.run.
 *
 * It walks the flat tables of a compiled network, the arrays that
 * network._plan builds and _kernel.py passes as they are, one particle at
 * a time, and reproduces the Python loop in network._loop, which runs
 * core.adaptive_update and then core.bs_route or core.pbs_route at every
 * splitter, bit for bit:
 *
 * - a splitter whose messages have dead halves (network._live_inputs
 *   picks them) runs the case BS1, SPLIT or MERGE, which skips terms that
 *   are +0.0 squares or +-0 registers and so computes the same doubles as
 *   the core functions;
 * - every adaptive unit draws from its own MT19937 stream, seeded and read
 *   exactly as CPython's Modules/_randommodule.c does (init_by_array on the
 *   32-bit words of the seed, genrand_res53 for random()), except that a
 *   MERGE generates no number: its draw decides nothing, and no other
 *   unit reads its stream.  Every other stream is seeded before the first
 *   particle, L streams at a time in lockstep (seed_lanes);
 * - complex arithmetic is spelled out in CPython's order (3.10 to 3.13):
 *   _Py_c_prod for a product and a float operand promoted to complex(x,
 *   0.0); a square is x * x, as in the core functions.
 *
 * Build with -O2 -ffp-contract=off -fno-math-errno, so that no product is
 * fused into an FMA (CPython fuses none, not even in a * a + b * b) and
 * sqrt is one instruction with no errno branch (IEEE sqrt is correctly
 * rounded either way).  The loader in _kernel.py does this once per
 * machine and caches the library.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* --- MT19937 as in CPython's _randommodule.c ---------------------------- */

#define N 624
#define M 397
#define MATRIX_A 0x9908b0dfU
#define UPPER_MASK 0x80000000U
#define LOWER_MASK 0x7fffffffU

/* the lanes of seed_lanes: streams seeded together, one per lane */
#define L 8

typedef struct {
    uint32_t mt[N];
    int mti;            /* the next word to read; N: twist first */
} mt_state;

static void init_genrand(uint32_t *mt, uint32_t s)
{
    mt[0] = s;
    for (int i = 1; i < N; i++)
        mt[i] = 1812433253U * (mt[i - 1] ^ (mt[i - 1] >> 30)) + (uint32_t)i;
}

/*
 * random.Random(seed[l]) into mt[units[l]] for each l < count <= L:
 * CPython's init_by_array, from base (the state init_genrand(19650218)
 * leaves), on the seed's little-endian 32-bit words, at least one.  The
 * recurrence is serial within a stream, so the streams run in lockstep,
 * one per lane of the interleaved lane[N][L].  Every lane walks the same
 * i: the key has one or two words, fewer than N, so the first pass takes
 * N steps whatever the key, and its step k adds key[k % length] + k %
 * length, which is add[k & 1].  Spare lanes run on a zero key and are
 * discarded.  The twist is left to the first draw (mti = N).
 */
static void seed_lanes(mt_state *mt, const int *units, const uint64_t *seed,
                       int count, const uint32_t *base)
{
    uint32_t lane[N][L], add[2][L];
    int i, k, l;
    for (l = 0; l < L; l++) {
        uint64_t s = l < count ? seed[l] : 0;
        uint32_t lo = (uint32_t)s, hi = (uint32_t)(s >> 32);
        add[0][l] = lo;
        add[1][l] = hi ? hi + 1U : lo;
    }
    for (i = 0; i < N; i++)
        for (l = 0; l < L; l++)
            lane[i][l] = base[i];
    i = 1;
    for (k = 0; k < N; k++) {
        for (l = 0; l < L; l++)
            lane[i][l] = (lane[i][l] ^ ((lane[i - 1][l] ^ (lane[i - 1][l] >> 30))
                                        * 1664525U)) + add[k & 1][l];
        if (++i >= N) {
            for (l = 0; l < L; l++)
                lane[0][l] = lane[N - 1][l];
            i = 1;
        }
    }
    for (k = N - 1; k; k--) {
        for (l = 0; l < L; l++)
            lane[i][l] = (lane[i][l] ^ ((lane[i - 1][l] ^ (lane[i - 1][l] >> 30))
                                        * 1566083941U)) - (uint32_t)i;
        if (++i >= N) {
            for (l = 0; l < L; l++)
                lane[0][l] = lane[N - 1][l];
            i = 1;
        }
    }
    for (l = 0; l < count; l++) {
        mt_state *s = &mt[units[l]];
        s->mt[0] = 0x80000000U;
        for (i = 1; i < N; i++)
            s->mt[i] = lane[i][l];
        s->mti = N;
    }
}

static uint32_t genrand_uint32(mt_state *self)
{
    static const uint32_t mag01[2] = {0x0U, MATRIX_A};
    uint32_t *mt = self->mt;
    uint32_t y;
    if (self->mti >= N) {
        int kk;
        for (kk = 0; kk < N - M; kk++) {
            y = (mt[kk] & UPPER_MASK) | (mt[kk + 1] & LOWER_MASK);
            mt[kk] = mt[kk + M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < N - 1; kk++) {
            y = (mt[kk] & UPPER_MASK) | (mt[kk + 1] & LOWER_MASK);
            mt[kk] = mt[kk + (M - N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[N - 1] & UPPER_MASK) | (mt[0] & LOWER_MASK);
        mt[N - 1] = mt[M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        self->mti = 0;
    }
    y = mt[self->mti++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

static double genrand_res53(mt_state *self)
{
    uint32_t a = genrand_uint32(self) >> 5, b = genrand_uint32(self) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* --- CPython's complex arithmetic ------------------------------------------ */

typedef struct { double re, im; } cpx;

static const cpx I = {0.0, 1.0};

static cpx cadd(cpx a, cpx b) { cpx r = {a.re + b.re, a.im + b.im}; return r; }

static cpx csub(cpx a, cpx b) { cpx r = {a.re - b.re, a.im - b.im}; return r; }

/* _Py_c_prod */
static cpx cmul(cpx a, cpx b)
{
    cpx r = {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
    return r;
}

/* float * complex and complex * float: the float becomes complex(x, 0.0) */
static cpx rmul(double x, cpx b) { cpx a = {x, 0.0}; return cmul(a, b); }

static cpx mulr(cpx a, double x) { cpx b = {x, 0.0}; return cmul(a, b); }

/* a square as the core functions write it: one IEEE product */
static inline double sq(double x) { return x * x; }

/* core._normalized: (zh, zv) / sqrt(p), where a p below the normal range
   is summed again from (zh, zv) * 2**600 */
static inline void normalized(cpx zh, cpx zv, double p, cpx *h, cpx *v)
{
    if (p < DBL_MIN) {
        zh = mulr(zh, 0x1p600);
        zv = mulr(zv, 0x1p600);
        p = sq(zh.re) + sq(zh.im) + sq(zv.re) + sq(zv.im);
    }
    double inv = 1.0 / sqrt(p);
    *h = mulr(zh, inv);
    *v = mulr(zv, inv);
}

/* normalized() for a message whose other half is dead: z / sqrt(p), p the
   sum of z's squares; the caller sets the dead half.  inline, because GCC
   -O2 otherwise calls it, which costs the mesh's scalar hop about 5 % */
static inline cpx normalized_half(cpx z, double p)
{
    if (p < DBL_MIN) {
        z = mulr(z, 0x1p600);
        p = sq(z.re) + sq(z.im);
    }
    return mulr(z, 1.0 / sqrt(p));
}

/* --- the event loop -------------------------------------------------------- */

/* unit cases: network.py's kinds, then _kernel.py's dead-half cases */
enum { DETECTOR = 0, BS = 1, PBS = 2, BS1 = 3, SPLIT = 4, MERGE = 5 };
/* edge tags: NONE, ABSORB, or the t2 row the edge crosses (>= 0) */
enum { NONE = -1, ABSORB = -2 };
/* edge transforms */
enum { PASS = 0, HADAMARD = 1, PHASE = 2 };
/* return codes */
enum { OK = 0, VANISHED = 1, UNTAPPED = 2, NO_MEMORY = 3, NOT_UNIT = 4,
       SEED_COUNT = 5 };

/* registers of one adaptive unit, the fields of core.AdaptiveState */
typedef struct { double w0, w1; cpx y0h, y0v, y1h, y1v; } regs;

/* whether a unit of this kind generates numbers: a MERGE's draw decides
   nothing, so it generates none */
static int draws(int kind)
{
    return kind == BS || kind == PBS || kind == BS1 || kind == SPLIT;
}

/* seeds the stream mt[j] of every unit j < n that draws, L at a time, the
   q-th such unit in unit order with seed[q]; a MERGE's stream is left
   unseeded.  Returns the number of units that draw; unless it is n_seeds,
   nothing is read of seed or seeded */
static int seed_streams(mt_state *mt, const uint64_t *seed, int n_seeds,
                        const int *kind, int n)
{
    uint32_t base[N];
    int group[L], count = 0, drawing = 0;
    for (int j = 0; j < n; j++)
        drawing += draws(kind[j]);
    if (drawing != n_seeds)
        return drawing;
    init_genrand(base, 19650218U);
    for (int j = 0; j < n; j++) {
        if (draws(kind[j]))
            group[count++] = j;
        if (count == L || (count > 0 && j == n - 1)) {
            seed_lanes(mt, group, seed, count, base);
            seed += count;
            count = 0;
        }
    }
    return drawing;
}

/* adaptive_update on both halves */
static void update(regs *r, int port, double g, cpx h, cpx v)
{
    double c = 1.0 - g;
    if (port == 0) {
        r->w0 = g * r->w0 + c;
        r->w1 = g * r->w1;
        r->y0h = cadd(rmul(g, r->y0h), rmul(c, h));
        r->y0v = cadd(rmul(g, r->y0v), rmul(c, v));
    } else {
        r->w1 = g * r->w1 + c;
        r->w0 = g * r->w0;
        r->y1h = cadd(rmul(g, r->y1h), rmul(c, h));
        r->y1v = cadd(rmul(g, r->y1v), rmul(c, v));
    }
}

/*
 * Sends n_particles through the compiled network.  Per unit j < n, the
 * last one the sink that unwired ports lead to (kind -1): kind[j], the
 * detector's count slot[j], and gamma[j] of an adaptive unit, with its
 * registers reg[10 j .. 10 j + 9] (w0, w1, then y0h, y0v, y1h, y1v as re,
 * im pairs), read at the start and left holding the final values.  seed[q]
 * seeds the stream of the q-th unit, in unit order, that draws: a BS, PBS,
 * BS1 or SPLIT, of which there are n_seeds.  reg is the run's own copy of
 * the plan's template (network._plan's reg), so a run writes to no other
 * run's registers.  Per edge e: dst[e], dst_port[e], tag[e], xform[e] and,
 * for a phase edge, factor[2 e], factor[2 e + 1].  source holds the
 * emitted message (h.re, h.im, v.re, v.im).
 *
 * Adds to counts[slot], t2[row * n_sites + slot] (when taps), removed and
 * arrivals[j], the particles that reached adaptive unit j.  Returns OK or
 * an error code; VANISHED leaves p0, p1 in err, NOT_UNIT the squared norm
 * of the message that reached a detector in err[0], and SEED_COUNT, which
 * sends no particle, the number of units that draw in err[0].
 */
int qwalk_run(int n, long long n_particles, int start, const double *source,
              const int *kind, const int *slot, const double *gamma,
              const uint64_t *seed, double *reg,
              const int *dst, const int *dst_port, const int *tag,
              const int *xform, const double *factor,
              int taps, int n_sites, int n_seeds, long long *counts,
              long long *t2, long long *removed, long long *arrivals,
              double *err)
{
    const double s = 1.0 / sqrt(2.0);
    const cpx h0 = {source[0], source[1]}, v0 = {source[2], source[3]};
    regs *R = (regs *)reg;
    int status = OK;
    long long i;

    /* the MT19937 stream of each unit that draws, seeded before the first
       particle */
    mt_state *mt = malloc((size_t)n * sizeof *mt);
    if (mt == NULL)
        return NO_MEMORY;
    int drawing = seed_streams(mt, seed, n_seeds, kind, n);
    if (drawing != n_seeds) {
        free(mt);
        err[0] = drawing;
        return SEED_COUNT;
    }

    for (i = 0; i < n_particles && status == OK; i++) {
        int e = start, x2 = NONE;
        cpx h = h0, v = v0;
        for (;;) {
            int t = tag[e];
            if (t != NONE) {
                if (t == ABSORB) {
                    ++*removed;
                    break;
                }
                x2 = t;
            }
            if (xform[e] == HADAMARD) {
                cpx a = mulr(cadd(h, v), s), b = mulr(csub(h, v), s);
                h = a;
                v = b;
            } else if (xform[e] == PHASE) {
                cpx f = {factor[2 * e], factor[2 * e + 1]};
                h = cmul(f, h);
                v = cmul(f, v);
            }
            int j = dst[e], port = dst_port[e];
            regs *r = &R[j];
            double g = gamma[j], u, p0, p1, total;
            cpx z0h, z0v, z1h, z1v;
            switch (kind[j]) {
            case BS1: {
                /* adaptive_update and bs_route on the h half alone; v is
                   left as it is */
                double c = 1.0 - g;
                if (port == 0) {
                    r->w0 = g * r->w0 + c;
                    r->w1 = g * r->w1;
                    r->y0h = cadd(rmul(g, r->y0h), rmul(c, h));
                } else {
                    r->w1 = g * r->w1 + c;
                    r->w0 = g * r->w0;
                    r->y1h = cadd(rmul(g, r->y1h), rmul(c, h));
                }
                arrivals[j]++;
                u = genrand_res53(&mt[j]);
                cpx v0h = rmul(sqrt(r->w0), r->y0h), v1h = rmul(sqrt(r->w1), r->y1h);
                z0h = mulr(cadd(v0h, cmul(I, v1h)), s);
                z1h = mulr(cadd(cmul(I, v0h), v1h), s);
                p0 = sq(z0h.re) + sq(z0h.im);
                p1 = sq(z1h.re) + sq(z1h.im);
                total = p0 + p1;
                if (!(total >= 1e-30))
                    goto vanished;
                if (u < p0 / total) {
                    h = normalized_half(z0h, p0);
                    e = 2 * j;
                } else {
                    h = normalized_half(z1h, p1);
                    e = 2 * j + 1;
                }
                continue;
            }
            case SPLIT: {
                /* pbs_route fed on port 0 only: y1h and y1v stay zero */
                double c = 1.0 - g;
                r->w0 = g * r->w0 + c;
                r->w1 = g * r->w1;
                r->y0h = cadd(rmul(g, r->y0h), rmul(c, h));
                r->y0v = cadd(rmul(g, r->y0v), rmul(c, v));
                arrivals[j]++;
                u = genrand_res53(&mt[j]);
                double a = sqrt(r->w0);
                z0h = rmul(a, r->y0h);
                z1v = cmul(I, rmul(a, r->y0v));
                p0 = sq(z0h.re) + sq(z0h.im);
                p1 = sq(z1v.re) + sq(z1v.im);
                total = p0 + p1;
                if (!(total >= 1e-30))
                    goto vanished;
                if (u < p0 / total) {
                    h = normalized_half(z0h, p0);
                    v.re = v.im = 0.0;
                    e = 2 * j;
                } else {
                    h.re = h.im = 0.0;
                    v = normalized_half(z1v, p1);
                    e = 2 * j + 1;
                }
                continue;
            }
            case MERGE: {
                /* pbs_route with h only on port 0 and v only on port 1:
                   port 0 wins whatever the draw, so the merge counts the
                   hop but generates no number.  No other unit reads its
                   stream, which is therefore never seeded */
                double c = 1.0 - g;
                if (port == 0) {
                    r->w0 = g * r->w0 + c;
                    r->w1 = g * r->w1;
                    r->y0h = cadd(rmul(g, r->y0h), rmul(c, h));
                } else {
                    r->w1 = g * r->w1 + c;
                    r->w0 = g * r->w0;
                    r->y1v = cadd(rmul(g, r->y1v), rmul(c, v));
                }
                arrivals[j]++;
                z0h = rmul(sqrt(r->w0), r->y0h);
                z0v = cmul(I, rmul(sqrt(r->w1), r->y1v));
                p0 = sq(z0h.re) + sq(z0h.im) + sq(z0v.re) + sq(z0v.im);
                if (!(p0 >= 1e-30)) {
                    p1 = 0.0;
                    goto vanished;
                }
                normalized(z0h, z0v, p0, &h, &v);
                e = 2 * j;
                continue;
            }
            case BS:
            case PBS: {
                /* adaptive_update, then bs_route or pbs_route */
                update(r, port, g, h, v);
                arrivals[j]++;
                u = genrand_res53(&mt[j]);
                double a = sqrt(r->w0), b = sqrt(r->w1);
                if (kind[j] == BS) {
                    cpx v0h = rmul(a, r->y0h), v0v = rmul(a, r->y0v);
                    cpx v1h = rmul(b, r->y1h), v1v = rmul(b, r->y1v);
                    z0h = mulr(cadd(v0h, cmul(I, v1h)), s);
                    z0v = mulr(cadd(v0v, cmul(I, v1v)), s);
                    z1h = mulr(cadd(cmul(I, v0h), v1h), s);
                    z1v = mulr(cadd(cmul(I, v0v), v1v), s);
                } else {
                    z0h = rmul(a, r->y0h);
                    z0v = cmul(I, rmul(b, r->y1v));
                    z1h = rmul(b, r->y1h);
                    z1v = cmul(I, rmul(a, r->y0v));
                }
                /* core._pick_port */
                p0 = sq(z0h.re) + sq(z0h.im) + sq(z0v.re) + sq(z0v.im);
                p1 = sq(z1h.re) + sq(z1h.im) + sq(z1v.re) + sq(z1v.im);
                total = p0 + p1;
                if (!(total >= 1e-30))
                    goto vanished;
                if (u < p0 / total) {
                    normalized(z0h, z0v, p0, &h, &v);
                    e = 2 * j;
                } else {
                    normalized(z1h, z1v, p1, &h, &v);
                    e = 2 * j + 1;
                }
                continue;
            }
            case DETECTOR:
                /* network._loop's check: a message arrives with unit norm */
                p0 = sq(h.re) + sq(h.im) + sq(v.re) + sq(v.im);
                if (!(fabs(p0 - 1.0) <= 1e-12)) {
                    err[0] = p0;
                    status = NOT_UNIT;
                    break;
                }
                counts[slot[j]]++;
                if (taps) {
                    if (x2 < 0) {
                        status = UNTAPPED;
                        break;
                    }
                    t2[(long long)x2 * n_sites + slot[j]]++;
                }
                break;
            }
            /* a detector, or the sink, which network._plan proves no
               particle reaches (one that did would be lost, and run()'s
               conservation check would report it) */
            break;
        vanished:
            err[0] = p0;
            err[1] = p1;
            status = VANISHED;
            break;
        }
    }
    free(mt);
    return status;
}
