/* Row arithmetic of the best-response search (DESIGN.md section 18).

   A row is an OCaml int array of which only the prefix [0, k) is read.
   Every entry is a non-negative int below 2^62 / n (section 18.3), so
   the kernel works on the tagged words 2x + 1 directly:
   - tagging is monotone, so a min or a max of tagged words is the
     tagged min or max;
   - a sum of k tagged words is 2 * sum + k, untagged once at the end,
     and it stays below 2^63 because a node cost is below 2^62 / n.

   One C body serves two builds: on x86-64 an AVX2 build of it is
   chosen once, at load time, when the CPU has AVX2; every other target
   and CPU runs the portable build.  Both are exported under their own
   names so a test can compare them.  Only ints are stored into [dst],
   so no write barrier is needed, and nothing allocates. */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>

#if defined(__x86_64__) && defined(__GNUC__)
#define ROW_KERNEL_AVX2 1
#endif

/* Each lane reads index i and writes index i, so [dst == cur] carries
   no dependency across iterations (GCC or clang). */
#if defined(__clang__)
#define ROW_NO_CARRIED_DEP _Pragma("clang loop vectorize(assume_safety)")
#else
#define ROW_NO_CARRIED_DEP _Pragma("GCC ivdep")
#endif

#define ROW_MIN(a, b) ((a) < (b) ? (a) : (b))
#define ROW_MAX(a, b) ((a) > (b) ? (a) : (b))

/* The bodies, inlined into each build. */

static inline __attribute__((always_inline)) intnat
sum_body(const value *cur, const value *f, intnat k)
{
  uintnat s = 0;
  for (intnat i = 0; i < k; i++) s += (uintnat)ROW_MIN(cur[i], f[i]);
  return (intnat)(s - (uintnat)k) >> 1;
}

/* The max of zero columns is 0. */
static inline __attribute__((always_inline)) intnat
max_body(const value *cur, const value *f, intnat k)
{
  value m = Val_long(0);
  for (intnat i = 0; i < k; i++) {
    value x = ROW_MIN(cur[i], f[i]);
    m = ROW_MAX(m, x);
  }
  return Long_val(m);
}

static inline __attribute__((always_inline)) void
min_body(value *dst, const value *cur, const value *f, intnat k)
{
  ROW_NO_CARRIED_DEP
  for (intnat i = 0; i < k; i++) dst[i] = ROW_MIN(cur[i], f[i]);
}

/* The portable build. */

intnat bbc_row_score_sum_portable(value cur, value f, intnat k)
{
  return sum_body(Op_val(cur), Op_val(f), k);
}

intnat bbc_row_score_max_portable(value cur, value f, intnat k)
{
  return max_body(Op_val(cur), Op_val(f), k);
}

value bbc_row_min_into_portable(value dst, value cur, value f, intnat k)
{
  min_body(Op_val(dst), Op_val(cur), Op_val(f), k);
  return Val_unit;
}

/* The AVX2 build and the dispatch. */

#ifdef ROW_KERNEL_AVX2
static int have_avx2;

__attribute__((constructor)) static void row_kernel_init(void)
{
  __builtin_cpu_init();
  have_avx2 = __builtin_cpu_supports("avx2");
}

__attribute__((target("avx2"))) static intnat
score_sum_avx2(value cur, value f, intnat k)
{
  return sum_body(Op_val(cur), Op_val(f), k);
}

__attribute__((target("avx2"))) static intnat
score_max_avx2(value cur, value f, intnat k)
{
  return max_body(Op_val(cur), Op_val(f), k);
}

__attribute__((target("avx2"))) static value
min_into_avx2(value dst, value cur, value f, intnat k)
{
  min_body(Op_val(dst), Op_val(cur), Op_val(f), k);
  return Val_unit;
}
#endif

intnat bbc_row_score_sum(value cur, value f, intnat k)
{
#ifdef ROW_KERNEL_AVX2
  if (have_avx2) return score_sum_avx2(cur, f, k);
#endif
  return bbc_row_score_sum_portable(cur, f, k);
}

intnat bbc_row_score_max(value cur, value f, intnat k)
{
#ifdef ROW_KERNEL_AVX2
  if (have_avx2) return score_max_avx2(cur, f, k);
#endif
  return bbc_row_score_max_portable(cur, f, k);
}

value bbc_row_min_into(value dst, value cur, value f, intnat k)
{
#ifdef ROW_KERNEL_AVX2
  if (have_avx2) return min_into_avx2(dst, cur, f, k);
#endif
  return bbc_row_min_into_portable(dst, cur, f, k);
}

/* Bytecode entry points of the dispatching kernels, on tagged
   arguments. */

value bbc_row_score_sum_byte(value cur, value f, value k)
{
  return Val_long(bbc_row_score_sum(cur, f, Long_val(k)));
}

value bbc_row_score_max_byte(value cur, value f, value k)
{
  return Val_long(bbc_row_score_max(cur, f, Long_val(k)));
}

value bbc_row_min_into_byte(value dst, value cur, value f, value k)
{
  return bbc_row_min_into(dst, cur, f, Long_val(k));
}
