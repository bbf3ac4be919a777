#!/usr/bin/env python3
"""Unit tests for the determinism/concurrency linter's rules engine, the
option census and the src/ size ceiling.

Feeds known-bad and known-good C++ snippets to check_invariants.check_source
and asserts exactly which rules fire on which lines, checks which
declarations option_census counts as option fields, and which lines
src_size counts as code. Registered as the
`lint_selftest` ctest so a rule regression (a rule going silent, or a fixed
false positive coming back) fails the suite, not just CI.

Run directly: python3 tools/lint/lint_selftest.py
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import textwrap
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_invariants  # noqa: E402
import option_census  # noqa: E402
import src_size  # noqa: E402


def run(source: str, path: str = "src/fake/file.cpp"):
    """check_source on a dedented snippet; returns [(line, rule), ...]."""
    violations = check_invariants.check_source(textwrap.dedent(source), path)
    return [(v.line, v.rule) for v in violations]


def rules(source: str, path: str = "src/fake/file.cpp"):
    return sorted({rule for _, rule in run(source, path)})


class UnorderedIterationTest(unittest.TestCase):
    def test_range_for_over_declared_unordered_map(self):
        src = """\
        #include <unordered_map>
        void f() {
          std::unordered_map<int, double> weights;
          for (const auto& [k, v] : weights) emit(k, v);
        }
        """
        self.assertEqual(run(src), [(4, "unordered-iteration")])

    def test_range_for_over_unordered_set_member(self):
        src = """\
        struct S {
          std::unordered_set<int> seen_;
          void dump() {
            for (const auto x : seen_) print(x);
          }
        };
        """
        self.assertEqual(rules(src), ["unordered-iteration"])

    def test_begin_iterator_loop_flagged(self):
        src = """\
        std::unordered_map<int, int> memo;
        for (auto it = memo.begin(); it != memo.end(); ++it) use(*it);
        """
        self.assertEqual(rules(src), ["unordered-iteration"])

    def test_find_against_end_is_not_iteration(self):
        # The .end() comparison in a find-pattern must NOT fire: a cache
        # lookup compares against end() without iterating the container.
        src = """\
        std::unordered_map<int, int> cache;
        if (const auto it = cache.find(key); it != cache.end()) return it->second;
        """
        self.assertEqual(run(src), [])

    def test_alias_declared_container(self):
        src = """\
        using SigMap = std::unordered_map<std::uint32_t, double>;
        void f() {
          SigMap sig;
          for (const auto& [b, p] : sig) acc += p;
        }
        """
        self.assertEqual(rules(src), ["unordered-iteration"])

    def test_allow_comment_suppresses(self):
        src = """\
        std::unordered_set<int> vars;
        // lint:allow(unordered-iteration: copied out and immediately sorted)
        std::vector<int> sorted(vars.begin(), vars.end());
        """
        self.assertEqual(run(src), [])

    def test_ordered_map_is_fine(self):
        src = """\
        std::map<int, int> ordered;
        for (const auto& [k, v] : ordered) emit(k, v);
        """
        self.assertEqual(run(src), [])

    def test_mention_in_comment_or_string_ignored(self):
        src = """\
        // for (auto& x : std::unordered_map<int,int>{}) — docs only
        const char* msg = "for (x : unordered_map)";
        """
        self.assertEqual(run(src), [])


class RawRngTest(unittest.TestCase):
    def test_std_rand_flagged(self):
        self.assertEqual(rules("int x = std::rand();"), ["raw-rng"])

    def test_random_device_flagged(self):
        self.assertEqual(rules("std::random_device rd;"), ["raw-rng"])

    def test_mt19937_flagged(self):
        self.assertEqual(rules("std::mt19937_64 gen(42);"), ["raw-rng"])

    def test_srand_flagged(self):
        self.assertEqual(rules("srand(7);"), ["raw-rng"])

    def test_allowed_inside_util_rng(self):
        # Path scoping: util/rng.{hpp,cpp} is the sanctioned home.
        src = "std::random_device rd;"
        self.assertEqual(run(src, path="src/util/rng.cpp"), [])
        self.assertEqual(run(src, path="src/util/rng.hpp"), [])
        self.assertEqual(rules(src, path="src/util/rng_test.cpp"), ["raw-rng"])

    def test_allow_comment_suppresses(self):
        src = """\
        // lint:allow(raw-rng: seeding doc example only)
        std::mt19937 gen;
        """
        self.assertEqual(run(src), [])


class RawThreadTest(unittest.TestCase):
    def test_std_thread_flagged(self):
        self.assertEqual(rules("std::thread t(work);"), ["raw-thread"])

    def test_jthread_flagged(self):
        self.assertEqual(rules("std::jthread t(work);"), ["raw-thread"])

    def test_vector_of_threads_flagged(self):
        self.assertEqual(rules("std::vector<std::thread> workers;"),
                         ["raw-thread"])

    def test_hardware_concurrency_is_fine(self):
        src = "const unsigned n = std::thread::hardware_concurrency();"
        self.assertEqual(run(src), [])

    def test_allowed_inside_thread_pool(self):
        src = "std::vector<std::thread> workers_;"
        self.assertEqual(run(src, path="src/engine/thread_pool.cpp"), [])
        self.assertEqual(run(src, path="src/engine/thread_pool.hpp"), [])

    def test_allow_comment_suppresses(self):
        src = """\
        // lint:allow(raw-thread: stress test drives clients concurrently)
        std::thread t([&] { eng.analyze(req); });
        """
        self.assertEqual(run(src), [])


class AtomicFloatTest(unittest.TestCase):
    def test_atomic_double_flagged(self):
        self.assertEqual(rules("std::atomic<double> sum{0.0};"),
                         ["atomic-float"])

    def test_atomic_float_flagged(self):
        self.assertEqual(rules("std::atomic<float> acc;"), ["atomic-float"])

    def test_atomic_long_double_flagged(self):
        self.assertEqual(rules("std::atomic<long double> acc;"),
                         ["atomic-float"])

    def test_atomic_integer_is_fine(self):
        src = """\
        std::atomic<std::uint64_t> counter{0};
        std::atomic<bool> flag{false};
        """
        self.assertEqual(run(src), [])


class ByteTruthMaskTest(unittest.TestCase):
    def test_byte_vector_in_src_flagged(self):
        src = "std::vector<std::uint8_t> phi(n, 1);"
        self.assertEqual(rules(src), ["byte-truth-mask"])

    def test_spaced_template_args_flagged(self):
        src = "const std::vector< std::uint8_t > mask = d.evalAtom(m, a);"
        self.assertEqual(rules(src), ["byte-truth-mask"])

    def test_la_is_the_sanctioned_home(self):
        # The packed representation's own byte bridge lives in la/.
        src = "std::vector<std::uint8_t> bytes(numBits_, 0);"
        self.assertEqual(run(src, path="src/la/bit_vector.cpp"), [])
        self.assertEqual(run(src, path="src/la/bit_vector.hpp"), [])

    def test_tests_and_bench_keep_byte_oracles(self):
        # tests/ and bench/ ARE the byte-mask oracle; only src/ is scoped.
        src = "std::vector<std::uint8_t> legacy(n, 1);"
        self.assertEqual(run(src, path="tests/mc_bounded_test.cpp"), [])
        self.assertEqual(run(src, path="bench/la.cpp"), [])

    def test_other_byte_vectors_not_flagged(self):
        # Only std::uint8_t element types; raw buffers of other widths are
        # out of scope.
        src = """\
        std::vector<std::uint32_t> cols;
        std::vector<unsigned char> blob;
        """
        self.assertEqual(run(src), [])

    def test_mention_in_comment_ignored(self):
        src = "// replaced the std::vector<std::uint8_t> masks with BitVector"
        self.assertEqual(run(src), [])

    def test_allow_comment_suppresses(self):
        src = """\
        // lint:allow(byte-truth-mask: wire-format byte payload, not a mask)
        std::vector<std::uint8_t> packet(header.size());
        """
        self.assertEqual(run(src), [])


class GuardedByTest(unittest.TestCase):
    def test_unannotated_member_in_mutex_owning_class(self):
        src = """\
        class Cache {
         public:
          void put(int k);
         private:
          mutable util::Mutex mutex_;
          std::uint64_t hits_ = 0;
        };
        """
        self.assertEqual(run(src), [(6, "guarded-by")])

    def test_guarded_by_annotation_satisfies(self):
        src = """\
        class Cache {
         private:
          mutable util::Mutex mutex_;
          std::uint64_t hits_ MIMOSTAT_GUARDED_BY(mutex_) = 0;
        };
        """
        self.assertEqual(run(src), [])

    def test_annotation_on_previous_line_satisfies(self):
        src = """\
        class Cache {
         private:
          mutable util::Mutex mutex_;
          std::unordered_map<int, int> entries_
              MIMOSTAT_GUARDED_BY(mutex_);
        };
        """
        self.assertEqual(rules(src), [])

    def test_std_mutex_also_counts_as_owning(self):
        src = """\
        class Pool {
          std::mutex m_;
          bool stop_ = false;
        };
        """
        self.assertEqual(run(src), [(3, "guarded-by")])

    def test_condvar_member_exempt(self):
        src = """\
        class Pool {
          util::Mutex mutex_;
          util::CondVar wake_;
          std::condition_variable cv_;
        };
        """
        self.assertEqual(run(src), [])

    def test_const_and_static_members_exempt(self):
        src = """\
        class Cache {
          util::Mutex mutex_;
          const std::size_t maxEntries_;
          static constexpr int kLimit_ = 4;
        };
        """
        self.assertEqual(run(src), [])

    def test_class_without_mutex_not_checked(self):
        src = """\
        class Plain {
          std::uint64_t hits_ = 0;
          double value_ = 0.0;
        };
        """
        self.assertEqual(run(src), [])

    def test_member_function_locals_not_flagged(self):
        # Declarations inside member function bodies are not class members.
        src = """\
        class Cache {
          util::Mutex mutex_;
          int size_ MIMOSTAT_GUARDED_BY(mutex_) = 0;
          void touch() {
            int local_ = 3;
            use(local_);
          }
        };
        """
        self.assertEqual(run(src), [])

    def test_inline_accessor_return_not_flagged(self):
        # An inline accessor that returns a member: `return *cache_;`.
        src = """\
        class Engine {
          util::Mutex mutex_;
          int table_ MIMOSTAT_GUARDED_BY(mutex_) = 0;
          Cache& cache() { return *cache_; }
        };
        """
        self.assertEqual(run(src), [])

    def test_allow_comment_suppresses(self):
        src = """\
        class Pool {
          util::Mutex mutex_;
          /// lint:allow(guarded-by: immutable after construction)
          std::vector<int> table_;
        };
        """
        self.assertEqual(run(src), [])


class RawWallclockTest(unittest.TestCase):
    def test_steady_clock_in_src_flagged(self):
        src = "const auto t0 = std::chrono::steady_clock::now();"
        self.assertEqual(rules(src), ["raw-wallclock"])

    def test_system_and_high_resolution_clocks_flagged(self):
        src = """\
        auto a = std::chrono::system_clock::now();
        auto b = std::chrono::high_resolution_clock::now();
        """
        self.assertEqual(run(src),
                         [(1, "raw-wallclock"), (2, "raw-wallclock")])

    def test_stopwatch_in_src_flagged(self):
        self.assertEqual(rules("util::Stopwatch timer;"), ["raw-wallclock"])

    def test_util_and_obs_are_the_sanctioned_homes(self):
        src = "const auto t0 = std::chrono::steady_clock::now();"
        self.assertEqual(run(src, path="src/util/timer.hpp"), [])
        self.assertEqual(run(src, path="src/obs/clock.hpp"), [])
        self.assertEqual(run(src, path="src/obs/trace.cpp"), [])

    def test_tests_and_bench_time_freely(self):
        # Only src/ is scoped; harness timing is not a determinism hazard.
        src = "util::Stopwatch timer;"
        self.assertEqual(run(src, path="tests/engine_test.cpp"), [])
        self.assertEqual(run(src, path="bench/table3_viterbi_steady.cpp"), [])

    def test_chrono_durations_are_fine(self):
        # Duration arithmetic / literals don't read a clock.
        src = """\
        std::chrono::seconds ttl{0};
        cv.wait_for(lock, std::chrono::milliseconds(5));
        """
        self.assertEqual(run(src), [])

    def test_mention_in_comment_ignored(self):
        src = "// replaced std::chrono::steady_clock with obs::Span"
        self.assertEqual(run(src), [])

    def test_allow_comment_suppresses(self):
        src = """\
        // lint:allow(raw-wallclock: TTL eviction needs a real clock)
        auto now = std::chrono::steady_clock::now();
        """
        self.assertEqual(run(src), [])


class ReductionBoundaryTest(unittest.TestCase):
    def test_block_map_read_in_engine_flagged(self):
        src = "values[s] = blockValues[info.blockOf[s]];"
        self.assertEqual(rules(src, path="src/engine/engine.cpp"),
                         ["reduction-boundary"])

    def test_representative_indexing_flagged(self):
        src = "const auto rep = info.representative[b];"
        self.assertEqual(rules(src, path="src/pctl/plan.cpp"),
                         ["reduction-boundary"])

    def test_reduce_lump_mc_own_the_indexing(self):
        src = "lifted[s] = blockValues[info.blockOf[s]];"
        self.assertEqual(run(src, path="src/reduce/reduce.cpp"), [])
        self.assertEqual(run(src, path="src/lump/bisim.cpp"), [])
        self.assertEqual(run(src, path="src/mc/checker.cpp"), [])

    def test_tests_and_bench_verify_the_mapping_freely(self):
        src = "EXPECT_EQ(info.blockOf[0], info.blockOf[1]);"
        self.assertEqual(run(src, path="tests/reduce_test.cpp"), [])
        self.assertEqual(run(src, path="bench/reduce.cpp"), [])

    def test_unrelated_representative_identifier_ignored(self):
        # Plain uses of the word (no table indexing) are not block-map math.
        src = "std::string representative = pickRepresentative();"
        self.assertEqual(run(src, path="src/engine/engine.cpp"), [])

    def test_mention_in_comment_ignored(self):
        src = "// maps via info.blockOf, see reduce::liftStateValues"
        self.assertEqual(run(src, path="src/engine/engine.cpp"), [])

    def test_allow_comment_suppresses(self):
        src = """\
        // lint:allow(reduction-boundary: builds the partition handed to lump::)
        blockOf[s] = it->second;
        """
        self.assertEqual(run(src, path="src/core/reduction.cpp"), [])


class EngineTest(unittest.TestCase):
    def test_allow_comment_is_rule_specific(self):
        # An allow for one rule must not blanket-suppress another.
        src = """\
        // lint:allow(unordered-iteration: wrong rule)
        std::thread t(work);
        """
        self.assertEqual(rules(src), ["raw-thread"])

    def test_violations_sorted_by_line(self):
        src = """\
        std::mt19937 gen;
        std::thread t(work);
        std::atomic<double> acc;
        """
        self.assertEqual(run(src),
                         [(1, "raw-rng"), (2, "raw-thread"),
                          (3, "atomic-float")])

    def test_list_rules_names_every_rule(self):
        expected = {"unordered-iteration", "raw-rng", "raw-thread",
                    "atomic-float", "byte-truth-mask", "guarded-by",
                    "raw-wallclock", "reduction-boundary",
                    "simd-intrinsics", "transient-step",
                    "hidden-thread-state"}
        self.assertEqual(set(check_invariants.RULES), expected)

    def test_clean_source_exits_zero_via_main(self):
        self.assertEqual(check_invariants.main(["--list-rules"]), 0)


class SimdIntrinsicsTest(unittest.TestCase):
    def test_immintrin_include_flagged_outside_la(self):
        src = """\
        #include <immintrin.h>
        """
        self.assertEqual(run(src, "src/mc/fast.cpp"),
                         [(1, "simd-intrinsics")])

    def test_arm_neon_include_flagged_in_tests(self):
        # tests/ and bench/ are banned too: they must force paths through
        # la::Exec::simd, not hand-roll vectors outside the dispatch layer.
        src = """\
        #include <arm_neon.h>
        """
        self.assertEqual(run(src, "tests/fast_test.cpp"),
                         [(1, "simd-intrinsics")])

    def test_avx_intrinsic_call_and_vector_type_flagged(self):
        src = """\
        void f(const double* p) {
          __m256d acc = _mm256_setzero_pd();
          acc = _mm256_add_pd(acc, _mm256_loadu_pd(p));
        }
        """
        self.assertEqual(rules(src, "bench/fast.cpp"), ["simd-intrinsics"])

    def test_neon_intrinsic_call_flagged(self):
        src = """\
        float64x2_t v = vld1q_f64(p);
        v = vfmaq_f64(v, v, v);
        """
        self.assertEqual(run(src, "src/engine/hot.cpp"),
                         [(1, "simd-intrinsics"), (2, "simd-intrinsics")])

    def test_src_la_is_exempt(self):
        src = """\
        #include <immintrin.h>
        __m256d acc = _mm256_setzero_pd();
        """
        self.assertEqual(run(src, "src/la/simd_avx2.cpp"), [])

    def test_allow_comment_suppresses(self):
        src = """\
        // lint:allow(simd-intrinsics: ffi shim mirrors the vendor ABI)
        __m128d raw = _mm_setzero_pd();
        """
        self.assertEqual(run(src, "src/util/ffi.cpp"), [])

    def test_mention_in_comment_or_string_is_clean(self):
        src = """\
        // dispatch picks _mm256_mul_pd inside src/la, never here
        const char* doc = "see _mm_add_pd and <immintrin.h>";
        """
        self.assertEqual(run(src, "src/obs/doc.cpp"), [])

    def test_plain_identifiers_do_not_false_positive(self):
        src = """\
        double vadd_total = values_f64 + vset_count;
        int m256 = mm_width(3);
        """
        self.assertEqual(run(src, "src/mc/clean.cpp"), [])


class TransientStepTest(unittest.TestCase):
    def test_hand_rolled_left_product_in_mc_flagged(self):
        src = """\
        for (std::uint64_t t = 0; t < steps; ++t) {
          la::spmm(dtmc.matrix(), pi, 1, next, exec, la::Side::kLeft);
          la::spmm(dtmc.matrix(), X, k, Y, exec,
                   la::Side::kLeft, &masks);
          const auto side = Side :: kLeft;
        }
        """
        self.assertEqual(run(src, "src/mc/checker.cpp"),
                         [(2, "transient-step"), (4, "transient-step"),
                          (5, "transient-step")])

    def test_kernel_home_and_oracles_are_exempt(self):
        src = """\
        spmm(P, pi, 1, next, exec, Side::kLeft);
        """
        for path in ("src/la/solver.cpp", "src/la/spmv.cpp",
                     "tests/mc_transient_test.cpp", "bench/sweep_reference.hpp"):
            self.assertEqual(run(src, path), [], path)

    def test_right_products_and_mentions_are_clean(self):
        src = """\
        la::spmm(A, X, k, Y, exec, la::Side::kRight, &masks, &stats);
        la::spmm(A, X, k, Y, exec);
        // the sweep calls la::spmm(..., la::Side::kLeft) once per step
        const char* doc = "Side::kLeft";
        const int kLeftover = 3;
        """
        self.assertEqual(run(src, "src/mc/checker.cpp"), [])

    def test_allow_comment_suppresses(self):
        src = """\
        // lint:allow(transient-step: the one forward step in mc/)
        la::spmm(dtmc_.matrix(), x_, 1, scratch_, exec_, la::Side::kLeft);
        """
        self.assertEqual(run(src, "src/mc/transient.cpp"), [])


class HiddenThreadStateTest(unittest.TestCase):
    def test_thread_local_in_a_model_flagged(self):
        src = """\
        void Model::transitions(const State& s, Successors& out) const {
          thread_local State scratch;
          static thread_local std::vector<int> cells;
        }
        """
        self.assertEqual(run(src, "src/mimo/model.cpp"),
                         [(2, "hidden-thread-state"),
                          (3, "hidden-thread-state")])

    def test_obs_tests_and_bench_are_exempt(self):
        src = "thread_local std::uint64_t t_currentSpan = 0;"
        for path in ("src/obs/trace.cpp", "src/obs/metrics.cpp",
                     "tests/obs_test.cpp", "bench/micro_kernels.cpp"):
            self.assertEqual(run(src, path), [], path)

    def test_mentions_are_clean(self):
        src = """\
        // no thread_local scratch: the sink lends it
        const char* doc = "thread_local";
        State scratch_local;
        """
        self.assertEqual(run(src, "src/dtmc/builder.cpp"), [])

    def test_allow_comment_suppresses(self):
        src = """\
        // lint:allow(hidden-thread-state: per-thread RNG cache)
        thread_local util::Xoshiro256 rng(1);
        """
        self.assertEqual(run(src, "src/smc/smc.cpp"), [])


def census(source: str, path: str = "src/fake/options.hpp"):
    """option_census on a dedented header; returns [(name, fields), ...]."""
    entries = option_census.census_source(textwrap.dedent(source), path)
    return [(e.name, e.fields) for e in entries]


class OptionCensusTest(unittest.TestCase):
    def test_data_members_are_counted(self):
        src = """\
        namespace mimostat::fake {
        struct FakeOptions {
          double epsilon = 1e-12;
          std::uint64_t maxIterations = 1'000'000;
          std::optional<int> pinned;
          std::vector<int> blocks{0, 0};
          std::function<void(int)> hook;
          std::uint64_t budget = 1ull << 30;
        };
        }  // namespace mimostat::fake
        """
        self.assertEqual(census(src), [("fake::FakeOptions", 6)])

    def test_member_functions_are_not_fields(self):
        src = """\
        struct Exec {
          int threshold = 3;
          [[nodiscard]] bool parallelFor(std::uint64_t nnz) const {
            return nnz >= threshold;
          }
          void reset();
          Exec() = default;
        };
        """
        self.assertEqual(census(src), [("Exec", 1)])

    def test_static_constants_aliases_and_nested_types_are_not_fields(self):
        src = """\
        struct FakeOptions {
          static constexpr std::uint64_t kDefault = 1ull << 15;
          using Runner = std::function<void()>;
          enum class Mode { kA, kB };
          struct Inner { int a; int b; };
          Mode mode = Mode::kA;
        };
        """
        self.assertEqual(census(src), [("FakeOptions", 1)])

    def test_comments_and_strings_are_not_fields(self):
        src = """\
        struct FakeOptions {
          // bool retired = false;
          /* int gone = 0;
             int alsoGone = 1; */
          const char* name = "int fake; double other;";
          int kept = 0;  ///< trailing doc; with a semicolon
        };
        """
        self.assertEqual(census(src), [("FakeOptions", 2)])

    def test_other_structs_are_not_counted(self):
        src = """\
        struct PlanStats { int a = 0; int b = 0; };
        struct ReachOptions { double epsilon = 1e-12; };
        """
        self.assertEqual(census(src), [("ReachOptions", 1)])

    def test_total_above_the_ceiling_fails(self):
        with tempfile.TemporaryDirectory() as root:
            os.makedirs(os.path.join(root, "src", "fake"))
            with open(os.path.join(root, "src", "fake", "a.hpp"), "w",
                      encoding="utf-8") as handle:
                handle.write("struct AOptions { int a = 0; int b = 1; };\n")
            with contextlib.redirect_stdout(io.StringIO()) as out:
                self.assertEqual(
                    option_census.main(["--root", root, "--max", "2"]), 0)
                self.assertEqual(
                    option_census.main(["--root", root, "--max", "1"]), 1)
            self.assertIn("total: 2 option fields", out.getvalue())


class SrcSizeTest(unittest.TestCase):
    def test_comments_and_blank_lines_are_not_code(self):
        src = textwrap.dedent("""\
            // A header comment.
            #include <vector>

            /* A block comment
               over two lines. */
            int f() {  // trailing comment: the line still counts
              return 1;
            }
            """)
        self.assertEqual(src_size.count_source(src), src_size.Count(8, 4))

    def test_comment_markers_inside_strings_are_code(self):
        src = 'const char* url = "http://example.org";\n'
        self.assertEqual(src_size.count_source(src), src_size.Count(1, 1))

    def test_total_above_the_ceiling_fails(self):
        with tempfile.TemporaryDirectory() as root:
            os.makedirs(os.path.join(root, "src", "fake"))
            with open(os.path.join(root, "src", "fake", "a.hpp"), "w",
                      encoding="utf-8") as handle:
                handle.write("// comment\nint a = 0;\n\nint b = 1;\n")
            with open(os.path.join(root, "src", "fake", "notes.txt"), "w",
                      encoding="utf-8") as handle:
                handle.write("not a source file\n")
            with contextlib.redirect_stdout(io.StringIO()) as out:
                self.assertEqual(src_size.main(["--root", root, "--max", "2"]),
                                 0)
                self.assertEqual(src_size.main(["--root", root, "--max", "1"]),
                                 1)
            self.assertIn("total: 2 non-comment lines (4 raw)", out.getvalue())


if __name__ == "__main__":
    unittest.main(verbosity=2)
