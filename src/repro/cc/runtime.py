'''The minic runtime library, itself written in minic.

Mirrors the paper's setup ("some of the library code, including the
floating point math routines, came from public BSD sources"): everything
above the four trap intrinsics (putchar/getchar/exit/sbrk) is compiled
from source with the same compiler and ISA as the benchmark, so library
code participates in the density and path-length measurements.

Contents: formatted output helpers, string/memory routines, a bump
allocator, a linear-congruential PRNG, and software math (sqrt via
Newton, sin/cos/exp by series with range reduction, log via atanh
series, atan with argument halving).
'''

RUNTIME_SOURCE = r"""
/* ------------------------------------------------------------------ io */

void puts(char *s) {
    while (*s) {
        putchar(*s);
        s = s + 1;
    }
}

void putln(char *s) {
    puts(s);
    putchar('\n');
}

void puti(int n) {
    char buf[12];
    int i;
    if (n == 0) { putchar('0'); return; }
    if (n < 0) {
        putchar('-');
        if (n == -2147483647 - 1) {   /* INT_MIN has no positive twin */
            puti(-(n / 10));
            putchar('0' + (-(n % 10)));
            return;
        }
        n = -n;
    }
    i = 0;
    while (n > 0) {
        buf[i] = '0' + n % 10;
        n = n / 10;
        i = i + 1;
    }
    while (i > 0) {
        i = i - 1;
        putchar(buf[i]);
    }
}

void putu(int n) {
    int q, r;
    if (n >= 0) { puti(n); return; }
    q = ((n >> 1) & 2147483647) / 5;
    r = n - q * 10;
    if (r >= 10) { q = q + 1; r = r - 10; }
    if (r < 0)  { q = q - 1; r = r + 10; }
    puti(q);
    putchar('0' + r);
}

void puthex(int n) {
    int i, digit, started;
    started = 0;
    for (i = 28; i >= 0; i = i - 4) {
        digit = (n >> i) & 15;
        if (digit || started || i == 0) {
            started = 1;
            if (digit < 10) putchar('0' + digit);
            else putchar('a' + digit - 10);
        }
    }
}

void putd(double x, int prec) {
    int ip, i, digit;
    double frac, scale;
    if (x < 0.0) {
        putchar('-');
        x = -x;
    }
    ip = (int) x;
    puti(ip);
    if (prec <= 0) return;
    putchar('.');
    frac = x - (double) ip;
    for (i = 0; i < prec; i = i + 1) {
        frac = frac * 10.0;
        digit = (int) frac;
        if (digit > 9) digit = 9;
        putchar('0' + digit);
        frac = frac - (double) digit;
    }
}

/* -------------------------------------------------------------- string */

int strlen(char *s) {
    int n;
    n = 0;
    while (s[n]) n = n + 1;
    return n;
}

int strcmp(char *a, char *b) {
    while (*a && *a == *b) {
        a = a + 1;
        b = b + 1;
    }
    return *a - *b;
}

int strncmp(char *a, char *b, int n) {
    while (n > 0 && *a && *a == *b) {
        a = a + 1;
        b = b + 1;
        n = n - 1;
    }
    if (n == 0) return 0;
    return *a - *b;
}

char *strcpy(char *dst, char *src) {
    char *out;
    out = dst;
    while (*src) {
        *dst = *src;
        dst = dst + 1;
        src = src + 1;
    }
    *dst = 0;
    return out;
}

char *strcat(char *dst, char *src) {
    strcpy(dst + strlen(dst), src);
    return dst;
}

char *strchr(char *s, int c) {
    while (*s) {
        if (*s == c) return s;
        s = s + 1;
    }
    if (c == 0) return s;
    return (char *) 0;
}

void *memcpy(char *dst, char *src, int n) {
    int i;
    for (i = 0; i < n; i = i + 1) dst[i] = src[i];
    return dst;
}

void *memset(char *dst, int value, int n) {
    int i;
    for (i = 0; i < n; i = i + 1) dst[i] = value;
    return dst;
}

/* --------------------------------------------------------------- alloc */

char *malloc(int size) {
    int p;
    size = (size + 7) & ~7;
    p = sbrk(size);
    if (p == -1) return (char *) 0;
    return (char *) p;
}

void free(char *p) {
    /* bump allocator: free is a no-op, like many benchmark harnesses */
}

/* ---------------------------------------------------------------- rand */

int __rand_state = 12345;

void srand(int seed) {
    __rand_state = seed;
}

int rand() {
    __rand_state = __rand_state * 1103515245 + 12345;
    return (__rand_state >> 16) & 32767;
}

/* ---------------------------------------------------------------- math */

int abs(int x) {
    if (x < 0) return -x;
    return x;
}

double fabs(double x) {
    if (x < 0.0) return -x;
    return x;
}

double floor(double x) {
    int ip;
    ip = (int) x;
    if (x < 0.0 && (double) ip != x) ip = ip - 1;
    return (double) ip;
}

double sqrt(double x) {
    double y, prev;
    int i;
    if (x <= 0.0) return 0.0;
    y = x;
    if (y < 1.0) y = 1.0;
    for (i = 0; i < 60; i = i + 1) {
        prev = y;
        y = 0.5 * (y + x / y);
        if (fabs(y - prev) <= y * 1.0e-15) return y;
    }
    return y;
}

double __poly_sin(double r) {
    double r2, term, sum;
    int k;
    r2 = r * r;
    term = r;
    sum = r;
    for (k = 1; k <= 9; k = k + 1) {
        term = -term * r2 / (double)((2 * k) * (2 * k + 1));
        sum = sum + term;
    }
    return sum;
}

double sin(double x) {
    double twopi, pi;
    int k;
    pi = 3.14159265358979323846;
    twopi = 2.0 * pi;
    k = (int) (x / twopi);
    x = x - (double) k * twopi;
    if (x > pi)  x = x - twopi;
    if (x < -pi) x = x + twopi;
    /* fold into [-pi/2, pi/2] where the series converges fast */
    if (x > pi / 2.0)  x = pi - x;
    if (x < -pi / 2.0) x = -pi - x;
    return __poly_sin(x);
}

double cos(double x) {
    return sin(x + 1.57079632679489661923);
}

double exp(double x) {
    double ln2, r, term, sum, result;
    int k, i;
    ln2 = 0.69314718055994530942;
    k = (int) (x / ln2);
    if (x < 0.0 && (double) k * ln2 > x) k = k - 1;
    r = x - (double) k * ln2;
    term = 1.0;
    sum = 1.0;
    for (i = 1; i <= 14; i = i + 1) {
        term = term * r / (double) i;
        sum = sum + term;
    }
    result = sum;
    while (k > 0) { result = result * 2.0; k = k - 1; }
    while (k < 0) { result = result * 0.5; k = k + 1; }
    return result;
}

double log(double x) {
    double ln2, m, t, t2, term, sum;
    int k, i;
    if (x <= 0.0) return -1.0e308;
    ln2 = 0.69314718055994530942;
    m = x;
    k = 0;
    while (m >= 2.0) { m = m * 0.5; k = k + 1; }
    while (m < 1.0)  { m = m * 2.0; k = k - 1; }
    t = (m - 1.0) / (m + 1.0);
    t2 = t * t;
    term = t;
    sum = 0.0;
    for (i = 1; i <= 19; i = i + 2) {
        sum = sum + term / (double) i;
        term = term * t2;
    }
    return 2.0 * sum + (double) k * ln2;
}

double atan(double x) {
    double t, t2, term, sum, result;
    int i, negate, halvings;
    negate = 0;
    if (x < 0.0) { x = -x; negate = 1; }
    /* halve the argument until the series converges quickly */
    halvings = 0;
    while (x > 0.4) {
        x = x / (1.0 + sqrt(1.0 + x * x));
        halvings = halvings + 1;
    }
    t = x;
    t2 = x * x;
    term = x;
    sum = 0.0;
    for (i = 1; i <= 17; i = i + 2) {
        sum = sum + term / (double) i;
        term = -term * t2;
    }
    result = sum;
    while (halvings > 0) {
        result = result * 2.0;
        halvings = halvings - 1;
    }
    if (negate) return -result;
    return result;
}

double pow(double x, double y) {
    if (x <= 0.0) return 0.0;
    return exp(y * log(x));
}
"""


def with_runtime(source: str, include_runtime: bool) -> str:
    """The program one compile sees: the runtime library, then
    ``source`` (or ``source`` alone without the runtime)."""
    return RUNTIME_SOURCE + "\n" + source if include_runtime else source
