/* The bodies of vsglab's CSV tables: formatted through one buffer, parsed one
 * row at a time where each row lies in a stdio buffer.
 *
 * vsg_table_write formats rows of float64, int64 and UTF-8 text columns.  A
 * float is written as Python's repr() writes it: the shortest digits that read
 * back to the same double, found by Ryu (Adams, "Ryu: fast float-to-string
 * conversion", PLDI 2018), in fixed or exponent form.  vsg_table_read parses
 * what vsg_table_write writes and nothing else: after the header, rows of
 * ','-separated fields, each row ended by '\n', each field read whole as
 * strtod reads it in the "C" locale, but with no leading whitespace,
 * hexadecimal or nan(chars).  A field of the form -?D+(.D+)?([eE][+-]?D+)? with
 * at most 19 significant digits is read by Eisel-Lemire (Lemire, "Number
 * parsing at a gigabyte per second", Software: Practice and Experience 2021),
 * to the same double; strtod_l reads every other field, and those whose result
 * Eisel-Lemire cannot decide.
 */

#define _GNU_SOURCE
#include <errno.h>
#include <locale.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

/* ---- Ryu: the shortest decimal of a double ---- */

__extension__ typedef unsigned __int128 u128;

/* ryu: POW5_ROWS rows of 5^i in its top POW5_BITS bits, then 342 rows of
   floor(2^(bits(5^i) - 1 + POW5_BITS) / 5^i) + 1, each row its (low, high) words */
enum { POW5_BITS = 125, POW5_ROWS = 326 };

/* bits(5^e): ceil(log2(5^e)) for e >= 1, and 1 for e = 0 */
static int32_t pow5_bits(int32_t e) { return ((e * 1217359) >> 19) + 1; }
/* floor(log10(2^e)) and floor(log10(5^e)) */
static int32_t log10_pow2(int32_t e) { return (e * 78913) >> 18; }
static int32_t log10_pow5(int32_t e) { return (e * 732923) >> 20; }

static int multiple_of_pow5(uint64_t v, int32_t p)
{
    int32_t count = 0;
    for (; v % 5 == 0; v /= 5)
        count++;
    return count >= p;
}

static int multiple_of_pow2(uint64_t v, int32_t p)
{
    return (v & ((UINT64_C(1) << p) - 1)) == 0;
}

static uint64_t mul_shift(uint64_t m, const uint64_t *mul, int32_t j)
{
    const u128 b0 = (u128)m * mul[0], b2 = (u128)m * mul[1];
    return (uint64_t)(((b0 >> 64) + b2) >> (j - 64));
}

/* The shortest digits of the finite nonzero double with these mantissa and
   exponent bits: *exp10 is set so that the double reads as digits * 10^exp10. */
static uint64_t shortest(uint64_t mant, uint32_t expo, const uint64_t *ryu, int32_t *exp10)
{
    /* two more bits, for the bounds halfway to the neighbouring doubles */
    const int32_t e2 = (expo == 0 ? 1 : (int32_t)expo) - 1023 - 52 - 2;
    const uint64_t m2 = expo == 0 ? mant : (UINT64_C(1) << 52) | mant;
    const int accept_bounds = (m2 & 1) == 0;
    const uint64_t mv = 4 * m2;
    const uint64_t mm_shift = mant != 0 || expo <= 1;
    uint64_t vr, vp, vm;
    int32_t e10;
    int vm_zeros = 0, vr_zeros = 0;

    if (e2 >= 0) {
        const int32_t q = log10_pow2(e2) - (e2 > 3);
        const int32_t i = -e2 + q + POW5_BITS + pow5_bits(q) - 1;
        const uint64_t *mul = ryu + 2 * (POW5_ROWS + q);
        e10 = q;
        vr = mul_shift(mv, mul, i);
        vp = mul_shift(mv + 2, mul, i);
        vm = mul_shift(mv - 1 - mm_shift, mul, i);
        if (q <= 21) {
            /* at most one of mv, mp, mm is a multiple of 5 */
            if (mv % 5 == 0)
                vr_zeros = multiple_of_pow5(mv, q);
            else if (accept_bounds)
                vm_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            else
                vp -= multiple_of_pow5(mv + 2, q);
        }
    } else {
        const int32_t q = log10_pow5(-e2) - (-e2 > 1);
        const int32_t i = -e2 - q;
        const int32_t j = q - (pow5_bits(i) - POW5_BITS);
        const uint64_t *mul = ryu + 2 * i;
        e10 = q + e2;
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if (q <= 1) {
            /* mv = 4 m2 has at least two trailing zero bits, mp = mv + 2 one
               and mm = mv - 1 - mm_shift one when mm_shift is 1 */
            vr_zeros = 1;
            if (accept_bounds)
                vm_zeros = mm_shift == 1;
            else
                vp--;
        } else if (q < 63) {
            vr_zeros = multiple_of_pow2(mv, q);
        }
    }

    /* drop digits while the interval (vm, vp) still holds a shorter number */
    int32_t removed = 0;
    uint64_t out;
    if (vm_zeros || vr_zeros) {
        uint64_t last = 0;
        for (; vp / 10 > vm / 10; removed++) {
            vm_zeros &= vm % 10 == 0;
            vr_zeros &= last == 0;
            last = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
        }
        if (vm_zeros) {
            for (; vm % 10 == 0; removed++) {
                vr_zeros &= last == 0;
                last = vr % 10;
                vr /= 10;
                vp /= 10;
                vm /= 10;
            }
        }
        if (vr_zeros && last == 5 && vr % 2 == 0)
            last = 4; /* exactly halfway: round to even */
        out = vr + ((vr == vm && (!accept_bounds || !vm_zeros)) || last >= 5);
    } else {
        int round_up = 0;
        if (vp / 100 > vm / 100) {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        for (; vp / 10 > vm / 10; removed++) {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
        }
        out = vr + (vr == vm || round_up);
    }
    *exp10 = e10 + removed;
    return out;
}

/* ---- the writer ---- */

enum { KIND_F64, KIND_I64, KIND_TEXT };
enum { CELL_MAX = 32 }; /* the longest number cell, "-2.2250738585072014e-308", is 24 */

/* the decimal digits of u at the end of d[20]; returns their count */
static int digits(uint64_t u, char d[20])
{
    int n = 0;
    do {
        d[19 - n++] = (char)('0' + u % 10);
        u /= 10;
    } while (u);
    return n;
}

/* repr(x) at p; returns its end */
static char *put_float(char *p, double x, const uint64_t *ryu)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    const uint64_t mant = bits & ((UINT64_C(1) << 52) - 1);
    const uint32_t expo = (uint32_t)(bits >> 52) & 0x7ff;
    if (expo == 0x7ff && mant != 0) { /* every NaN, whatever its sign and payload */
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (expo == 0x7ff || (expo == 0 && mant == 0)) {
        memcpy(p, expo ? "inf" : "0.0", 3);
        return p + 3;
    }
    int32_t exp10;
    char d[20];
    const int n = digits(shortest(mant, expo, ryu, &exp10), d);
    const char *s = d + 20 - n;
    const int point = n + exp10; /* the value is 0.s times 10^point */
    if (point <= -4 || point > 16) {
        int e = point - 1;
        *p++ = s[0];
        if (n > 1) {
            *p++ = '.';
            memcpy(p, s + 1, n - 1);
            p += n - 1;
        }
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        if (e < 0)
            e = -e;
        if (e >= 100)
            *p++ = (char)('0' + e / 100);
        *p++ = (char)('0' + e / 10 % 10);
        *p++ = (char)('0' + e % 10);
    } else if (point <= 0) {
        memcpy(p, "0.000", 2 - point);
        memcpy(p + 2 - point, s, n);
        p += 2 - point + n;
    } else if (point < n) {
        memcpy(p, s, point);
        p[point] = '.';
        memcpy(p + point + 1, s + point, n - point);
        p += n + 1;
    } else {
        memcpy(p, s, n);
        memset(p + n, '0', point - n);
        p += point;
        *p++ = '.';
        *p++ = '0';
    }
    return p;
}

static char *put_int(char *p, int64_t v)
{
    char d[20];
    if (v < 0)
        *p++ = '-';
    const int n = digits(v < 0 ? -(uint64_t)v : (uint64_t)v, d);
    memcpy(p, d + 20 - n, n);
    return p + n;
}

typedef struct {
    int fd;
    char *buf;
    int64_t cap, len;
    int err; /* errno of the first failed write */
} sink;

static void drain(sink *s)
{
    const char *p = s->buf;
    for (int64_t left = s->len; left > 0 && !s->err;) {
        const ssize_t w = write(s->fd, p, (size_t)left);
        if (w >= 0) {
            p += w;
            left -= w;
        } else if (errno != EINTR) {
            s->err = errno;
        }
    }
    s->len = 0;
}

static void put(sink *s, const char *src, int64_t n)
{
    while (n > 0) {
        if (s->len == s->cap)
            drain(s);
        const int64_t m = s->cap - s->len < n ? s->cap - s->len : n;
        memcpy(s->buf + s->len, src, m);
        s->len += m;
        src += m;
        n -= m;
    }
}

/* Write rows 0 .. n_rows - 1 to fd through one buffer of cap bytes, at least
 * CELL_MAX.  Column j is spec[3j .. 3j + 2]: its kind; then, for numbers, the
 * address of its first cell and the byte step to the next, and for text, the
 * address of the cells' UTF-8 bytes and that of the n_rows + 1 int64 offsets
 * of the cells in them.  Returns 0, or the errno of the failed allocation or
 * write. */
int vsg_table_write(int fd, int64_t n_rows, int64_t n_cols, const int64_t *spec,
                    const uint64_t *ryu, int64_t cap)
{
    if (cap < CELL_MAX)
        cap = CELL_MAX;
    sink s = {fd, malloc(cap), cap, 0, 0};
    if (!s.buf)
        return ENOMEM;
    for (int64_t r = 0; r < n_rows && !s.err; r++) {
        for (int64_t j = 0; j < n_cols; j++) {
            const int64_t *c = spec + 3 * j;
            const char *base = (const char *)(uintptr_t)c[1];
            if (c[0] == KIND_TEXT) {
                const int64_t *off = (const int64_t *)(uintptr_t)c[2];
                put(&s, base + off[r], off[r + 1] - off[r]);
            } else {
                if (s.cap - s.len < CELL_MAX)
                    drain(&s);
                const char *cell = base + r * c[2];
                double x;
                int64_t v;
                if (c[0] == KIND_F64) {
                    memcpy(&x, cell, sizeof x);
                    s.len = put_float(s.buf + s.len, x, ryu) - s.buf;
                } else {
                    memcpy(&v, cell, sizeof v);
                    s.len = put_int(s.buf + s.len, v) - s.buf;
                }
            }
            put(&s, j + 1 < n_cols ? "," : "\n", 1);
        }
    }
    drain(&s);
    free(s.buf);
    return s.err;
}

/* ---- the reader ---- */

/* what vsg_table_read stopped at, in err[0] */
enum { READ_IO = 1, READ_FIELD, READ_WIDTH, READ_ROWS, READ_END };
enum { FIELD_TEXT = 64 }; /* the bytes of a bad field it copies out */
enum { LEMIRE_Q_MIN = -342, LEMIRE_Q_MAX = 308 }; /* the rows of Eisel-Lemire's table */

/* w * 10^q correctly rounded, in *v, for w >= 1 and q in [LEMIRE_Q_MIN,
   LEMIRE_Q_MAX], by Eisel-Lemire: 1, or 0 for a subnormal or infinite result and
   for a product too near a rounding boundary to decide.  Row q - LEMIRE_Q_MIN of
   pow5 is the (low, high) words of 5^q in 128 bits: its top 128 bits for q >= 0,
   and for q < 0 a reciprocal rounded up. */
static int eisel_lemire(uint64_t w, int32_t q, const uint64_t *pow5, double *v)
{
    const uint64_t *row = pow5 + 2 * (q - LEMIRE_Q_MIN);
    const int lz = __builtin_clzll(w);
    w <<= lz;
    const u128 first = (u128)w * row[1];
    uint64_t hi = (uint64_t)(first >> 64), lo = (uint64_t)first;
    if ((hi & 0x1ff) == 0x1ff) { /* the low word's product may carry into the top 55 bits */
        const uint64_t carry = (uint64_t)(((u128)w * row[0]) >> 64);
        lo += carry;
        hi += lo < carry;
    }
    if (lo == UINT64_MAX && (q < -27 || q > 55))
        return 0;
    const int upper = (int)(hi >> 63);
    uint64_t m = hi >> (upper + 9); /* the 53 bits of the significand, then one to round */
    /* the biased exponent: (217706 q) >> 16 is floor(q log2(10)) */
    int32_t e = ((217706 * q) >> 16) + 63 + upper - lz + 1023;
    if (e <= 0) /* subnormal */
        return 0;
    /* exactly halfway between two doubles, which happens only for these q: to even */
    if (lo <= 1 && q >= -4 && q <= 23 && (m & 3) == 1 && m << (upper + 9) == hi)
        m ^= 1;
    m = (m + (m & 1)) >> 1;
    if (m == UINT64_C(1) << 53) { /* rounded up to the next power of 2 */
        m >>= 1;
        e++;
    }
    if (e >= 0x7ff)
        return 0;
    const uint64_t bits = (uint64_t)e << 52 | (m & ((UINT64_C(1) << 52) - 1));
    memcpy(v, &bits, sizeof bits);
    return 1;
}

/* The digits at p into w, counted in *n from the first nonzero one, which skips
   the zeros ahead of it while *n is 0; w wraps past 19 digits, which the caller
   refuses.  Returns the end of the digits. */
static const char *digit_run(const char *p, uint64_t *w, int64_t *n)
{
    if (*n == 0) /* no nonzero digit yet, and w is 0 */
        while (*p == '0')
            p++;
    const char *const first = p;
    for (; *p >= '0' && *p <= '9'; p++)
        *w = 10 * *w + (uint64_t)(*p - '0');
    *n += p - first;
    return p;
}

/* The NUL-terminated field s of len bytes as a float, in *v: 1 if it has the form
   -?D+(.D+)?([eE][+-]?D+)? with at most 19 significant digits, and Eisel-Lemire
   reads it; else 0. */
static int parse_decimal(const char *s, size_t len, const uint64_t *pow5, double *v)
{
    const int negative = *s == '-';
    const char *const digits = s + negative;
    uint64_t w = 0;
    int64_t n = 0, q = 0; /* the value is w * 10^q, and w has n digits */
    const char *p = digit_run(digits, &w, &n);
    if (p == digits)
        return 0;
    if (*p == '.') {
        const char *const fraction = p + 1;
        p = digit_run(fraction, &w, &n);
        if (p == fraction)
            return 0;
        q = fraction - p;
    }
    if (*p == 'e' || *p == 'E') {
        const int minus = p[1] == '-';
        const char *const exponent = p + 1 + (minus || p[1] == '+');
        int64_t e = 0;
        for (p = exponent; *p >= '0' && *p <= '9'; p++)
            if (e < 100000) /* past it, q is out of every range below */
                e = 10 * e + (*p - '0');
        if (p == exponent)
            return 0;
        q += minus ? -e : e;
    }
    if (p != s + len || n > 19)
        return 0;
    double x;
    if (w == 0)
        x = 0.0;
    else if (q < LEMIRE_Q_MIN || q > LEMIRE_Q_MAX || !eisel_lemire(w, (int32_t)q, pow5, &x))
        return 0;
    *v = negative ? -x : x;
    return 1;
}

/* The NUL-terminated field s of len bytes as a float, in *v: 1 if parse_decimal
   or else strtod reads all of it.  strtod also skips leading whitespace and reads
   hexadecimal and nan(chars), none of which vsg_table_write writes. */
static int parse_number(const char *s, size_t len, locale_t c_locale, const uint64_t *pow5,
                        double *v)
{
    if (parse_decimal(s, len, pow5, v))
        return 1;
    const char *digits = s + (*s == '+' || *s == '-');
    char *stop;
    if (len == 0 || *s == ' ' || (*s >= '\t' && *s <= '\r')
        || (digits[0] == '0' && (digits[1] == 'x' || digits[1] == 'X')))
        return 0;
    *v = strtod_l(s, &stop, c_locale);
    return stop == s + len && stop[-1] != ')';
}

/* Parse the rows of fd after the header line, from byte start to the end of
 * the file, into out: rows of n_cols floats, at most max_rows of them.  Each
 * row is read whole by getline through a stdio buffer of cap bytes, and each
 * field is parsed where it lies, with pow5 the LEMIRE_Q_MAX - LEMIRE_Q_MIN + 1
 * rows of Eisel-Lemire's table.  Returns the number of rows, or -1 with err =
 * {what, line, column, count}: READ_IO with count the errno; READ_FIELD with
 * count the length of the field's first bytes, copied to text (FIELD_TEXT
 * bytes); READ_WIDTH with count the row's fields; READ_ROWS; READ_END for a
 * last row with no line end, once its ','-ended fields are parsed.  Lines and
 * columns count from 1, the header's line too. */
int64_t vsg_table_read(int fd, int64_t start, int64_t n_cols, double *out, int64_t max_rows,
                       const uint64_t *pow5, int64_t cap, int64_t *err, char *text)
{
    const locale_t c_locale = newlocale(LC_ALL_MASK, "C", (locale_t)0);
    char *buf = malloc(cap), *row = NULL;
    const int copy = dup(fd);
    FILE *f = copy < 0 ? NULL : fdopen(copy, "r");
    size_t row_cap = 0;
    ssize_t len;
    int64_t rows = 0, col = 0, what = 0, count = 0;
    if (!c_locale || !buf || !f || setvbuf(f, buf, _IOFBF, cap) || fseeko(f, start, SEEK_SET)) {
        what = READ_IO;
        count = errno;
    }
    while (!what && (len = getline(&row, &row_cap, f)) > 0) {
        char *const end = row + len - (row[len - 1] == '\n');
        char *s = row, *stop;
        for (col = 0;; col++, s = stop + 1) { /* the field from s to stop */
            stop = memchr(s, ',', end - s);
            if (!stop)
                stop = end;
            *stop = '\0';
            if (stop == row + len)
                what = READ_END;
            else if (col < n_cols && rows == max_rows)
                what = READ_ROWS;
            else if (col < n_cols
                     && !parse_number(s, stop - s, c_locale, pow5, out + rows * n_cols + col)) {
                count = stop - s < FIELD_TEXT ? stop - s : FIELD_TEXT;
                memcpy(text, s, count);
                what = READ_FIELD;
            }
            if (what || stop == end)
                break;
        }
        if (!what && col + 1 != n_cols) {
            what = READ_WIDTH;
            count = col + 1;
            col = count < n_cols ? count : n_cols;
        }
        rows += !what;
    }
    if (!what && !feof(f)) {
        what = READ_IO;
        count = errno;
    }
    if (f)
        fclose(f);
    else if (copy >= 0)
        close(copy);
    free(buf);
    free(row);
    if (c_locale)
        freelocale(c_locale);
    err[0] = what;
    err[1] = rows + 2;
    err[2] = col + 1;
    err[3] = count;
    return what ? -1 : rows;
}
