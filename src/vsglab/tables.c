/* The bodies of vsglab's CSV tables, formatted and parsed through one buffer.
 *
 * vsg_table_write formats rows of float64, int64 and UTF-8 text columns.  A
 * float is written as Python's repr() writes it: the shortest digits that read
 * back to the same double, found by Ryu (Adams, "Ryu: fast float-to-string
 * conversion", PLDI 2018), in fixed or exponent form.  vsg_table_read parses
 * what vsg_table_write writes and nothing else: after the header, rows of
 * ','-separated fields, each row ended by '\n', each field read whole by strtod
 * in the "C" locale with no leading whitespace, hexadecimal or nan(chars).
 */

#define _GNU_SOURCE
#include <errno.h>
#include <locale.h>
#include <stddef.h>
#include <stdint.h>
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

/* The NUL-terminated field s of len bytes as a float, in *v: 1 if strtod reads
   all of it.  strtod also skips leading whitespace and reads hexadecimal and
   nan(chars), none of which vsg_table_write writes. */
static int parse_number(const char *s, size_t len, locale_t c_locale, double *v)
{
    const char *digits = s + (*s == '+' || *s == '-');
    char *stop;
    if (len == 0 || *s == ' ' || (*s >= '\t' && *s <= '\r')
        || (digits[0] == '0' && (digits[1] == 'x' || digits[1] == 'X')))
        return 0;
    *v = strtod_l(s, &stop, c_locale);
    return stop == s + len && stop[-1] != ')';
}

typedef struct {
    int64_t n_cols, max_rows, rows, line, col;
    double *out;
    int64_t *err;
    char *text;
    locale_t c_locale;
    char *s; /* the field read so far, which may span chunks */
    size_t len, cap;
} reader;

static void fail(reader *r, int64_t what, int64_t column, int64_t count)
{
    r->err[0] = what;
    r->err[1] = r->line;
    r->err[2] = column;
    r->err[3] = count;
}

static void append(reader *r, const char *src, size_t n)
{
    if (r->len + n >= r->cap) {
        const size_t cap = 2 * r->cap > r->len + n ? 2 * r->cap : r->len + n + 1;
        char *s = realloc(r->s, cap);
        if (!s) {
            fail(r, READ_IO, 0, ENOMEM);
            return;
        }
        r->s = s;
        r->cap = cap;
    }
    memcpy(r->s + r->len, src, n);
    r->len += n;
}

/* the field just read, as column col of the row being read */
static void end_field(reader *r)
{
    if (r->col < r->n_cols) {
        r->s[r->len] = '\0';
        if (r->rows == r->max_rows) {
            fail(r, READ_ROWS, r->col + 1, 0);
        } else if (!parse_number(r->s, r->len, r->c_locale,
                                 r->out + r->rows * r->n_cols + r->col)) {
            const size_t n = r->len < FIELD_TEXT ? r->len : FIELD_TEXT;
            memcpy(r->text, r->s, n);
            fail(r, READ_FIELD, r->col + 1, (int64_t)n);
        }
    }
    r->col++;
    r->len = 0;
}

static void end_row(reader *r)
{
    end_field(r);
    if (!r->err[0] && r->col != r->n_cols)
        fail(r, READ_WIDTH, (r->col < r->n_cols ? r->col : r->n_cols) + 1, r->col);
    r->rows++;
    r->line++;
    r->col = 0;
}

/* Parse bytes start .. size - 1 of fd, the rows after the header line, read
 * through one buffer of cap bytes, into out: rows of n_cols floats, at most
 * max_rows of them.  Returns the number of rows, or -1 with err = {what, line,
 * column, count}: READ_IO with count the errno; READ_FIELD with count the
 * length of the field's first bytes, copied to text (FIELD_TEXT bytes);
 * READ_WIDTH with count the row's fields; READ_ROWS; READ_END for a last row
 * with no line end.  Lines and columns count from 1, the header's line too. */
int64_t vsg_table_read(int fd, int64_t start, int64_t size, int64_t n_cols, double *out,
                       int64_t max_rows, int64_t cap, int64_t *err, char *text)
{
    reader r = {n_cols, max_rows, 0, 2, 0, out, err, text,
                newlocale(LC_ALL_MASK, "C", (locale_t)0), malloc(64), 0, 64};
    char *buf = malloc(cap);
    err[0] = 0;
    if (!buf || !r.s || !r.c_locale)
        fail(&r, READ_IO, 0, ENOMEM);
    for (int64_t off = start; off < size && !err[0];) {
        const ssize_t got = pread(fd, buf, cap < size - off ? cap : size - off, off);
        if (got == 0) /* the file shrank */
            break;
        if (got < 0) {
            if (errno != EINTR)
                fail(&r, READ_IO, 0, errno);
            continue;
        }
        off += got;
        for (const char *p = buf, *end = buf + got; p < end && !err[0];) {
            const char *q = p;
            while (q < end && *q != ',' && *q != '\n')
                q++;
            append(&r, p, q - p);
            if (q == end)
                break;
            if (*q == ',')
                end_field(&r);
            else
                end_row(&r);
            p = q + 1;
        }
    }
    if (!err[0] && (r.col || r.len))
        fail(&r, READ_END, r.col + 1, 0);
    free(buf);
    free(r.s);
    if (r.c_locale)
        freelocale(r.c_locale);
    return err[0] ? -1 : r.rows;
}
