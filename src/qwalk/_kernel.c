/*
 * Compiled event loop of qwalk.network.run.
 *
 * It walks the flat tables of a compiled network, the arrays that
 * network._plan builds and _kernel.py passes as they are, and reproduces
 * the Python loop in network._loop, which sends one particle at a time and
 * runs core.adaptive_update and then core.bs_route or core.pbs_route at
 * every splitter, bit for bit:
 *
 * - up to K particles are in flight, in the order they were emitted, and
 *   each round moves each of them, oldest first, by one hop.  A hop reads
 *   and writes only the unit it enters (its registers and stream), and
 *   rank (network._live_inputs) grows strictly along every edge.  So a
 *   particle may enter unit j only if rank[j] is at most the rank of the
 *   last unit every older particle in flight entered: every unit then sees
 *   its particles in the order they were emitted.  A particle that stops
 *   on an error drops every younger one and ends the emission; the older
 *   ones fly on, and the error returned is that of the oldest particle
 *   that stopped, as in a run of one particle at a time.  The hops of
 *   different particles overlap in the processor, and the port a draw
 *   picks selects its doubles instead of taking a branch, which would
 *   stall them;
 * - two kinds of splitter whose messages have dead halves
 *   (network._live_inputs picks them) run a case of their own, which skips
 *   terms that are +0.0 squares or +-0 registers and so computes the same
 *   doubles as the core functions: BS1, a beam splitter no v half
 *   reaches, and MERGE, a PBS whose out-port 1 is dead.  Each measured
 *   faster than the general case BS or PBS, which every other splitter
 *   runs; a PBS fed on in-port 0 alone takes PBS, and its dead halves come
 *   out as the same signed zeros as pbs_route's;
 * - a dead in-port, one no particle reaches, keeps y = +-0, and its weight
 *   w is multiplied by gamma at every arrival on the other port until it
 *   reaches a subnormal fixed point, where g * w == w: 9 * 2**-1074 after
 *   14 453 arrivals at gamma 0.95.  Every product or sqrt of a subnormal
 *   is slow, so at or below that point (network._plan's fixed) the kernel
 *   skips g * w, which would return w, and takes sqrt(w) as 0.0, whose
 *   product with y is the same +-0.  Both are branches, which skip the
 *   work; a select would still do it;
 * - every adaptive unit draws from its own MT19937 stream, seeded and read
 *   exactly as CPython's Modules/_randommodule.c does (init_by_array on the
 *   32-bit words of the seed, genrand_res53 for random()), except that a
 *   MERGE generates no number: its draw decides nothing, and no other
 *   unit reads its stream, so it has none.  Only the units that draw have
 *   a stream, mt[stream[j]] by network._plan's stream table, seeded before
 *   the first particle, L = 16 streams at a time in lockstep (seed_lanes).
 *   A stream twists its whole state and tempers all 624 words into a
 *   block at once (refill), in loops that the compiler vectorizes, and
 *   each draw reads two words of that block: the same words CPython's
 *   genrand_uint32 returns one at a time;
 * - complex arithmetic is spelled out as the core functions spell it: a
 *   real times a complex is two products, i * z is (-z.im, z.re), a phase
 *   edge's complex * complex is CPython's _Py_c_prod, and a square is
 *   x * x.  The core functions write out the parts themselves, so their
 *   doubles do not depend on how a CPython multiplies a float by a complex
 *   (3.10 to 3.13 promote the float to complex(x, 0.0), 3.14 does not).
 *
 * Build with -O3 -ffp-contract=off -fno-math-errno, so that no product is
 * fused into an FMA (CPython fuses none, not even in a * a + b * b) and
 * sqrt is one instruction with no errno branch (IEEE sqrt is correctly
 * rounded either way).  -O3 adds vectorization and more inlining and
 * unrolling, none of which reorders float arithmetic: that would take
 * -ffast-math or -fassociative-math.  The loader in _kernel.py does this
 * once per machine and caches the library.
 */
#include <float.h>
#include <limits.h>
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
#define L 16

/*
 * One stream: the raw state mt, the block out of its 624 tempered words,
 * which one twist and tempering pass fills at a time (refill), and the
 * number of doubles read from out, two words each.  A double never spans
 * two blocks, since random() reads words two at a time and N is even.
 */
typedef struct {
    uint32_t mt[N];
    uint32_t out[N];
    int read;           /* doubles read of N / 2; N / 2: refill first */
} mt_state;

static void init_genrand(uint32_t *mt, uint32_t s)
{
    mt[0] = s;
    for (int i = 1; i < N; i++)
        mt[i] = 1812433253U * (mt[i - 1] ^ (mt[i - 1] >> 30)) + (uint32_t)i;
}

/*
 * random.Random(seed[l]) into mt[l] for each l < count <= L: CPython's
 * init_by_array, from base (the state init_genrand(19650218) leaves), on
 * the seed's little-endian 32-bit words, at least one.  The recurrence is
 * serial within a stream, so the streams run in lockstep, one per lane of
 * the interleaved lane[N][L].  Every lane walks the same i: the key has
 * one or two words, fewer than N, so the first pass takes N steps
 * whatever the key, and its step k adds key[k % length] + k % length,
 * which is add[k & 1].  Spare lanes run on a zero key and are discarded.
 * The twist is left to the first draw (read = N / 2).
 */
static void seed_lanes(mt_state *mt, const uint64_t *seed, int count,
                       const uint32_t *base)
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
        mt_state *s = &mt[l];
        s->mt[0] = 0x80000000U;
        for (i = 1; i < N; i++)
            s->mt[i] = lane[i][l];
        s->read = N / 2;
    }
}

/*
 * CPython's twist of the whole state, with -(y & 1) & MATRIX_A for its
 * mag01[y & 1], then its tempering of every word into out.  These are
 * plain loops over the words, which GCC vectorizes; the second twist loop
 * reads the words the first wrote, N - M behind it.
 */
static void refill(mt_state *self)
{
    uint32_t *mt = self->mt, *out = self->out, y;
    int kk;
    for (kk = 0; kk < N - M; kk++) {
        y = (mt[kk] & UPPER_MASK) | (mt[kk + 1] & LOWER_MASK);
        mt[kk] = mt[kk + M] ^ (y >> 1) ^ (-(y & 1U) & MATRIX_A);
    }
    for (; kk < N - 1; kk++) {
        y = (mt[kk] & UPPER_MASK) | (mt[kk + 1] & LOWER_MASK);
        mt[kk] = mt[kk + (M - N)] ^ (y >> 1) ^ (-(y & 1U) & MATRIX_A);
    }
    y = (mt[N - 1] & UPPER_MASK) | (mt[0] & LOWER_MASK);
    mt[N - 1] = mt[M - 1] ^ (y >> 1) ^ (-(y & 1U) & MATRIX_A);
    for (kk = 0; kk < N; kk++) {
        y = mt[kk];
        y ^= (y >> 11);
        y ^= (y << 7) & 0x9d2c5680U;
        y ^= (y << 15) & 0xefc60000U;
        y ^= (y >> 18);
        out[kk] = y;
    }
    self->read = 0;
}

/* random(): 53 bits from the next two tempered words */
static inline double genrand_res53(mt_state *self)
{
    if (self->read >= N / 2)
        refill(self);
    const uint32_t *w = self->out + 2 * self->read++;
    uint32_t a = w[0] >> 5, b = w[1] >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* --- complex arithmetic as the core functions spell it --------------------- */

typedef struct { double re, im; } cpx;

static cpx cadd(cpx a, cpx b) { cpx r = {a.re + b.re, a.im + b.im}; return r; }

static cpx csub(cpx a, cpx b) { cpx r = {a.re - b.re, a.im - b.im}; return r; }

/* _Py_c_prod, a phase edge's complex * complex */
static cpx cmul(cpx a, cpx b)
{
    cpx r = {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
    return r;
}

/* a real times a complex, either way round: two products */
static cpx rmul(double x, cpx b) { cpx r = {x * b.re, x * b.im}; return r; }

static cpx mulr(cpx a, double x) { cpx r = {a.re * x, a.im * x}; return r; }

/* i * z: a swap and a sign */
static cpx muli(cpx z) { cpx r = {-z.im, z.re}; return r; }

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
   sum of z's squares; the caller, BS1, sets the dead half */
static inline cpx normalized_half(cpx z, double p)
{
    if (p < DBL_MIN) {
        z = mulr(z, 0x1p600);
        p = sq(z.re) + sq(z.im);
    }
    return mulr(z, 1.0 / sqrt(p));
}

/* --- the event loop -------------------------------------------------------- */

/* unit cases: network.py's kinds, then network._live_inputs's dead-half
   cases */
enum { DETECTOR = 0, BS = 1, PBS = 2, BS1 = 3, MERGE = 4 };
/* edge tags: NONE, ABSORB, or the t2 row the edge crosses (>= 0) */
enum { NONE = -1, ABSORB = -2 };
/* edge transforms */
enum { PASS = 0, HADAMARD = 1, PHASE = 2 };
/* return codes */
enum { OK = 0, VANISHED = 1, UNTAPPED = 2, NO_MEMORY = 3, NOT_UNIT = 4 };
/* what a hop leaves of a particle besides OK (it has left the network) and
   an error code: it moved on, or it waits for an older particle */
enum { FLYING = -1, HELD = -2 };

/* the particles in flight at most */
#define K 4

/* registers of one adaptive unit, the fields of core.AdaptiveState: w0, w1
   and y0h, y0v, y1h, y1v, so that port q's weight is w[q] and its halves
   are y[2 q] and y[2 q + 1] */
typedef struct { double w[2]; cpx y[4]; } regs;

/* seeds the stream mt[q] with seed[q] for each q < n_seeds, L at a time */
static void seed_streams(mt_state *mt, const uint64_t *seed, int n_seeds)
{
    uint32_t base[N];
    init_genrand(base, 19650218U);
    for (int q = 0; q < n_seeds; q += L)
        seed_lanes(mt + q, seed + q, n_seeds - q < L ? n_seeds - q : L, base);
}

/* adaptive_update's weights for an arrival on port; the port indexes the
   registers, so that no branch waits for the port a draw picked.  The
   other port's weight is left as it is at or below its fixed point fix,
   where g * w == w, so a dead port's weight costs no subnormal product */
static inline void weigh(regs *r, int port, double g, double c, const double *fix)
{
    double a = r->w[port], b = r->w[port ^ 1];
    r->w[port] = g * a + c;
    if (__builtin_expect(b > fix[port ^ 1], 1))
        r->w[port ^ 1] = g * b;
}

/* sqrt(w), or 0.0 for a weight at or below fix, which only a dead port's
   can be: its registers y are +-0, so 0.0 * y is sqrt(w) * y, and the
   subnormal sqrt is skipped.  A branch, not a select, which would take
   the sqrt anyway */
static inline double root(double w, double fix)
{
    if (__builtin_expect(w <= fix, 0))
        return 0.0;
    return sqrt(w);
}

/* adaptive_update of the register y[i] with the arriving half z */
static inline void learn(regs *r, int i, double g, double c, cpx z)
{
    r->y[i] = cadd(rmul(g, r->y[i]), rmul(c, z));
}

/* adaptive_update on both halves */
static inline void update(regs *r, int port, double g, double c,
                          const double *fix, cpx h, cpx v)
{
    weigh(r, port, g, c, fix);
    learn(r, 2 * port, g, c, h);
    learn(r, 2 * port + 1, g, c, v);
}

/* one particle in flight */
typedef struct {
    cpx h, v;           /* its message */
    int e;              /* the edge it takes next */
    int x2;             /* the t2 row it crossed, or NONE */
    int rank;           /* the rank of the last unit it entered */
} particle;

/* a run's tables, as qwalk_run takes them */
typedef struct {
    const int *kind, *slot, *rank, *dst, *dst_port, *tag, *xform;
    const double *gamma, *fixed, *factor;
    regs *reg;
    mt_state *mt;
    const int *stream;
    int taps, n_sites;
    long long *counts, *t2, *removed, *where;
    double *err;
} tables;

/*
 * Moves particle q along its edge into the next unit and through it, the
 * body of network._loop's inner loop, unless that unit's rank is above
 * limit: then the particle is HELD where it is.  Returns FLYING when it
 * leaves the unit on an edge, OK when it is absorbed or detected, or an
 * error code, with its values in err.  The port a draw picks selects the
 * doubles of that port (k below), so no branch waits for the draw; the
 * values are those of the branches of core._pick_port.
 */
static inline int hop(const tables *T, particle *q, int limit)
{
    const double s = 1.0 / sqrt(2.0);
    int e = q->e, t = T->tag[e], j = T->dst[e];
    if (t == ABSORB) {
        ++*T->removed;
        return OK;
    }
    if (T->rank[j] > limit)
        return HELD;
    q->rank = T->rank[j];
    if (t != NONE)
        q->x2 = t;
    cpx h = q->h, v = q->v;
    if (T->xform[e] == HADAMARD) {
        cpx a = mulr(cadd(h, v), s), b = mulr(csub(h, v), s);
        h = a;
        v = b;
    } else if (T->xform[e] == PHASE) {
        cpx f = {T->factor[2 * e], T->factor[2 * e + 1]};
        h = cmul(f, h);
        v = cmul(f, v);
    }
    int port = T->dst_port[e], k;
    regs *r = &T->reg[j];
    double g = T->gamma[j], c = 1.0 - g, p[2], total;
    const double *fix = T->fixed + 2 * j;
    cpx z[2][2];
    switch (T->kind[j]) {
    case BS1: {
        /* adaptive_update and bs_route on the h half alone; v is left as
           it is */
        weigh(r, port, g, c, fix);
        learn(r, 2 * port, g, c, h);
        double u = genrand_res53(&T->mt[T->stream[j]]);
        cpx v0h = rmul(root(r->w[0], fix[0]), r->y[0]);
        cpx v1h = rmul(root(r->w[1], fix[1]), r->y[2]);
        z[0][0] = mulr(cadd(v0h, muli(v1h)), s);
        z[1][0] = mulr(cadd(muli(v0h), v1h), s);
        p[0] = sq(z[0][0].re) + sq(z[0][0].im);
        p[1] = sq(z[1][0].re) + sq(z[1][0].im);
        total = p[0] + p[1];
        if (!(total >= 1e-30))
            break;
        k = !(u < p[0] / total);
        q->h = normalized_half(z[k][0], p[k]);
        q->v = v;
        q->e = 2 * j + k;
        return FLYING;
    }
    case MERGE: {
        /* pbs_route with h only on port 0 and v only on port 1: port 0
           wins whatever the draw, so the merge generates no number, and
           network._plan gives it no stream.  The update learns the dead
           half too, as adaptive_update does: that is cheaper than picking
           the live half by the port, which stalls the load of the picked
           half */
        update(r, port, g, c, fix, h, v);
        z[0][0] = rmul(root(r->w[0], fix[0]), r->y[0]);
        z[0][1] = muli(rmul(root(r->w[1], fix[1]), r->y[3]));
        p[0] = sq(z[0][0].re) + sq(z[0][0].im) + sq(z[0][1].re) + sq(z[0][1].im);
        p[1] = 0.0;
        if (!(p[0] >= 1e-30))
            break;
        normalized(z[0][0], z[0][1], p[0], &q->h, &q->v);
        q->e = 2 * j;
        return FLYING;
    }
    case BS:
    case PBS: {
        /* adaptive_update, then bs_route or pbs_route */
        update(r, port, g, c, fix, h, v);
        double u = genrand_res53(&T->mt[T->stream[j]]);
        double a = root(r->w[0], fix[0]), b = root(r->w[1], fix[1]);
        if (T->kind[j] == BS) {
            cpx v0h = rmul(a, r->y[0]), v0v = rmul(a, r->y[1]);
            cpx v1h = rmul(b, r->y[2]), v1v = rmul(b, r->y[3]);
            z[0][0] = mulr(cadd(v0h, muli(v1h)), s);
            z[0][1] = mulr(cadd(v0v, muli(v1v)), s);
            z[1][0] = mulr(cadd(muli(v0h), v1h), s);
            z[1][1] = mulr(cadd(muli(v0v), v1v), s);
        } else {
            z[0][0] = rmul(a, r->y[0]);
            z[0][1] = muli(rmul(b, r->y[3]));
            z[1][0] = rmul(b, r->y[2]);
            z[1][1] = muli(rmul(a, r->y[1]));
        }
        /* core._pick_port */
        p[0] = sq(z[0][0].re) + sq(z[0][0].im) + sq(z[0][1].re) + sq(z[0][1].im);
        p[1] = sq(z[1][0].re) + sq(z[1][0].im) + sq(z[1][1].re) + sq(z[1][1].im);
        total = p[0] + p[1];
        if (!(total >= 1e-30))
            break;
        k = !(u < p[0] / total);
        normalized(z[k][0], z[k][1], p[k], &q->h, &q->v);
        q->e = 2 * j + k;
        return FLYING;
    }
    case DETECTOR: {
        /* network._loop's check: a message arrives with unit norm */
        double p0 = sq(h.re) + sq(h.im) + sq(v.re) + sq(v.im);
        if (!(fabs(p0 - 1.0) <= 1e-12)) {
            T->err[0] = p0;
            return NOT_UNIT;
        }
        T->counts[T->slot[j]]++;
        if (T->taps) {
            if (q->x2 < 0)
                return UNTAPPED;
            T->t2[(long long)q->x2 * T->n_sites + T->slot[j]]++;
        }
        return OK;
    }
    default:
        /* the sink, which network._plan proves no particle reaches (one
           that did would be lost, and run()'s conservation check would
           report it) */
        return OK;
    }
    /* a splitter whose routing amplitudes vanished */
    T->err[0] = p[0];
    T->err[1] = p[1];
    T->where[0] = j;
    return VANISHED;
}

/*
 * Sends n_particles through the compiled network, as the header says.
 * Per unit j, the last one the sink that unwired ports lead to (kind -1):
 * kind[j], its case (DETECTOR, BS, PBS, or the dead-half case BS1 or
 * MERGE), the detector's count slot[j], rank[j], stream[j], the index of
 * the stream a unit that draws reads (-1 for any other unit), and of an
 * adaptive unit gamma[j], the fixed point fixed[2 j + k] of in-port k's
 * weight (-1 for a live port) and its registers reg[10 j .. 10 j + 9]
 * (w0, w1, then y0h, y0v, y1h, y1v as re, im pairs), read at the start
 * and left holding the final values.  seed[q] seeds stream q < n_seeds;
 * the streams are the only memory the run allocates.  Per edge e: dst[e],
 * dst_port[e], tag[e], xform[e] and, for a phase edge, factor[2 e],
 * factor[2 e + 1].  source holds the emitted message (h.re, h.im, v.re,
 * v.im).
 *
 * Adds to counts[slot], t2[row * n_sites + slot] (when taps) and removed.
 * Returns OK or an error code: VANISHED leaves p0, p1 in err and the unit
 * and the particle (counted from 0) in where, and NOT_UNIT the squared
 * norm of the message that reached a detector in err[0].
 */
int qwalk_run(long long n_particles, int start, const double *source,
              const int *kind, const int *slot, const int *rank,
              const int *stream, const double *gamma, const double *fixed,
              const uint64_t *seed, double *reg, const int *dst,
              const int *dst_port, const int *tag, const int *xform,
              const double *factor,
              int taps, int n_sites, int n_seeds, long long *counts,
              long long *t2, long long *removed, long long *where,
              double *err)
{
    const cpx h0 = {source[0], source[1]}, v0 = {source[2], source[3]};
    int status = OK, flying = 0;
    long long emitted = 0;
    particle fly[K];

    /* the MT19937 stream of each unit that draws, mt[stream[j]] that of
       unit j, seeded before the first particle */
    mt_state *mt = malloc((size_t)n_seeds * sizeof *mt);
    if (mt == NULL && n_seeds > 0)
        return NO_MEMORY;
    seed_streams(mt, seed, n_seeds);
    const tables T = {kind, slot, rank, dst, dst_port, tag, xform, gamma,
                      fixed, factor, (regs *)reg, mt, stream, taps, n_sites,
                      counts, t2, removed, where, err};

    for (;;) {
        for (; flying < K && emitted < n_particles && status == OK; emitted++) {
            particle *q = &fly[flying++];
            q->h = h0;
            q->v = v0;
            q->e = start;
            q->x2 = NONE;
            q->rank = rank[start / 2];
        }
        if (flying == 0)
            break;
        /* limit: the least rank the older particles have reached */
        int limit = INT_MAX, kept = 0;
        for (int f = 0; f < flying; f++) {
            int r = hop(&T, &fly[f], limit);
            if (r > OK) {
                /* older than any particle that stopped before it */
                status = r;
                where[1] = emitted - flying + f;
                break;
            }
            if (r == OK)
                continue;
            if (fly[f].rank < limit)
                limit = fly[f].rank;
            if (kept != f)
                fly[kept] = fly[f];
            kept++;
        }
        flying = kept;
    }
    free(mt);
    return status;
}
