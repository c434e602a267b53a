#!/usr/bin/env python3
"""Unit tests for tools/ros_lint.py (run via ctest or directly)."""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ros_lint


def lint_source(source, status_fns=None, extra_decls=""):
    """Lints a single in-memory translation unit; returns finding rules
    with line numbers. `extra_decls` participates in status-fn inventory
    without being linted (models a header elsewhere in the tree)."""
    files = {"test.cc": source}
    if extra_decls:
        files["decls.h"] = extra_decls
    fns = status_fns if status_fns is not None \
        else ros_lint.collect_status_fns(files)
    lint = ros_lint.FileLint("test.cc", source, fns)
    return [(f.rule, f.line) for f in lint.run()]


class StripTest(unittest.TestCase):
    def test_strips_comments_and_strings_preserving_offsets(self):
        src = 'int x; // new Foo\nconst char* s = "delete p";\n/* new */ int y;\n'
        out = ros_lint.strip_comments_and_strings(src)
        self.assertEqual(len(out), len(src))
        self.assertNotIn("new", out)
        self.assertNotIn("delete", out)
        self.assertEqual(out.count("\n"), src.count("\n"))

    def test_raw_string_contents_blanked(self):
        src = 'auto j = R"({"a": "new X"})";\nint z;\n'
        out = ros_lint.strip_comments_and_strings(src)
        self.assertNotIn("new X", out)
        self.assertIn("int z;", out)


class DiscardedStatusTest(unittest.TestCase):
    DECLS = "Status DoWork(int x);\nsim::Task<Status> AsyncWork();\n"

    def test_flags_bare_call(self):
        rules = lint_source("void f() {\n  DoWork(1);\n}\n",
                            extra_decls=self.DECLS)
        self.assertIn(("discarded-status", 2), rules)

    def test_flags_bare_co_await(self):
        src = "sim::Task<void> f() {\n  co_await AsyncWork();\n}\n"
        rules = lint_source(src, extra_decls=self.DECLS)
        self.assertIn(("discarded-status", 2), rules)

    def test_consumed_results_not_flagged(self):
        src = (
            "Status g() {\n"
            "  ROS_RETURN_IF_ERROR(DoWork(1));\n"
            "  Status s = DoWork(2);\n"
            "  if (!DoWork(3).ok()) { return s; }\n"
            "  (void)DoWork(4);\n"
            "  return DoWork(5);\n"
            "}\n"
        )
        rules = [r for r, _ in lint_source(src, extra_decls=self.DECLS)]
        self.assertNotIn("discarded-status", rules)

    def test_continuation_line_not_flagged(self):
        # `auto x =` on one line, the call on the next: consumed, not
        # discarded, even though the call starts its own line.
        src = (
            "sim::Task<void> f() {\n"
            "  auto s =\n"
            "      co_await AsyncWork();\n"
            "  (void)s;\n"
            "}\n"
        )
        rules = [r for r, _ in lint_source(src, extra_decls=self.DECLS)]
        self.assertNotIn("discarded-status", rules)

    def test_ambiguous_name_not_flagged(self):
        # Put returns void on one class and Status on another: the
        # name-matching checker must drop it rather than guess.
        decls = "Status Put(int x);\nvoid Put(double y);\n"
        rules = lint_source("void f() {\n  Put(1);\n}\n", extra_decls=decls)
        self.assertEqual(rules, [])

    def test_inline_allow_suppresses(self):
        src = (
            "void f() {\n"
            "  // ros-lint: allow(discarded-status): best-effort probe\n"
            "  DoWork(1);\n"
            "}\n"
        )
        self.assertEqual(lint_source(src, extra_decls=self.DECLS), [])


class CoroRefParamTest(unittest.TestCase):
    def test_flags_ref_and_string_view_params(self):
        src = (
            "sim::Task<Status> f(const std::string& name,\n"
            "                    std::string_view tag, int n) {\n"
            "  co_return OkStatus();\n"
            "}\n"
        )
        rules = [r for r, _ in lint_source(src)]
        self.assertEqual(rules.count("coro-ref-param"), 2)

    def test_by_value_params_clean(self):
        src = ("sim::Task<Status> f(std::string name, int n) {\n"
               "  co_return OkStatus();\n}\n")
        self.assertEqual(lint_source(src), [])

    def test_declaration_not_flagged(self):
        # Only definitions are coroutines; a declaration has no body.
        src = "sim::Task<Status> f(const std::string& name);\n"
        self.assertEqual(lint_source(src), [])

    def test_non_coroutine_task_wrapper_not_flagged(self):
        # Task-returning but no co_* in the body: plain forwarding
        # function, references are fine.
        src = ("sim::Task<Status> f(const std::string& name) {\n"
               "  return g(name);\n}\n")
        self.assertEqual(lint_source(src), [])

    def test_multiline_allow_comment_suppresses(self):
        src = (
            "// ros-lint: allow(coro-ref-param): sim outlives every task\n"
            "// it runs, so the reference cannot dangle.\n"
            "sim::Task<Status> f(Simulator& sim) {\n"
            "  co_return OkStatus();\n"
            "}\n"
        )
        self.assertEqual(lint_source(src), [])


class CoroRefLambdaTest(unittest.TestCase):
    def test_flags_ref_capture_coroutine_lambda(self):
        src = ("void f() {\n"
               "  auto t = [&]() -> sim::Task<void> {\n"
               "    co_await Tick();\n"
               "  };\n"
               "}\n")
        rules = [r for r, _ in lint_source(src)]
        self.assertIn("coro-ref-lambda", rules)

    def test_flags_directly_awaited_ref_lambda(self):
        src = ("sim::Task<void> f() {\n"
               "  co_await Run([&] { return x; });\n"
               "}\n")
        rules = [r for r, _ in lint_source(src)]
        self.assertIn("coro-ref-lambda", rules)

    def test_plain_callback_lambda_clean(self):
        # Synchronous visitor callbacks capture by reference all over the
        # tree; without co_await involvement they are fine.
        src = ("void f() {\n"
               "  image.Walk([&](const Node& n) { count += 1; });\n"
               "}\n")
        self.assertEqual(lint_source(src), [])


class RawNewDeleteTest(unittest.TestCase):
    def test_flags_new_and_delete(self):
        src = ("void f() {\n"
               "  auto* p = new Foo();\n"
               "  delete p;\n"
               "}\n")
        rules = [r for r, _ in lint_source(src)]
        self.assertEqual(rules.count("raw-new-delete"), 2)

    def test_deleted_functions_clean(self):
        src = ("struct Foo {\n"
               "  Foo(const Foo&) = delete;\n"
               "  Foo& operator=(const Foo&) = delete;\n"
               "};\n")
        self.assertEqual(lint_source(src), [])

    def test_make_unique_and_strings_clean(self):
        src = ('void f() {\n'
               '  auto p = std::make_unique<Foo>();\n'
               '  std::string s = "new and delete in a string";\n'
               '  // new in a comment\n'
               '}\n')
        self.assertEqual(lint_source(src), [])


class ListSizeOnlyTest(unittest.TestCase):
    def test_flags_chained_size_and_empty(self):
        src = ("void f() {\n"
               "  auto n = volume_->List(prefix).size();\n"
               "  if (volume.List(\"/idx/\").empty()) { return; }\n"
               "}\n")
        rules = [r for r, _ in lint_source(src)]
        self.assertEqual(rules.count("list-size-only"), 2)

    def test_multiline_chain_flagged(self):
        src = ("void f() {\n"
               "  auto n = volume_->List(LongPrefixExpression(a, b))\n"
               "               .size();\n"
               "}\n")
        rules = lint_source(src)
        self.assertIn(("list-size-only", 2), rules)

    def test_stored_or_iterated_result_clean(self):
        # Materializing the vector and *using* it is the point of List;
        # only size/emptiness-of-a-temporary is the smell.
        src = ("void f() {\n"
               "  auto names = volume_->List(prefix);\n"
               "  for (const auto& n : names) { Use(n); }\n"
               "  auto count = names.size();\n"
               "}\n")
        self.assertEqual(lint_source(src), [])

    def test_list_children_not_flagged(self):
        # Exact-name match only: ListChildren returns direct children and
        # has no CountPrefix analogue.
        src = ("void f() {\n"
               "  auto n = volume_->ListChildren(prefix).size();\n"
               "}\n")
        self.assertEqual(lint_source(src), [])

    def test_inline_allow_suppresses(self):
        src = ("void f() {\n"
               "  // ros-lint: allow(list-size-only): test asserts contents\n"
               "  auto n = volume_->List(prefix).size();\n"
               "}\n")
        self.assertEqual(lint_source(src), [])


class RetryUnclassifiedTest(unittest.TestCase):
    def test_flags_ok_only_retry_loop(self):
        src = (
            "sim::Task<Status> f() {\n"
            "  for (int attempt = 0; attempt < 3; ++attempt) {\n"
            "    Status s = co_await DoWork();\n"
            "    if (s.ok()) { co_return s; }\n"
            "    co_await sim_.Delay(backoff);\n"
            "  }\n"
            "  co_return UnavailableError(\"gave up\");\n"
            "}\n"
        )
        rules = lint_source(src)
        self.assertIn(("retry-unclassified", 2), rules)

    def test_flags_retry_named_while_loop(self):
        src = (
            "sim::Task<Status> f() {\n"
            "  while (retries_left > 0) {\n"
            "    auto s = co_await DoWork();\n"
            "    if (s.ok()) { co_return OkStatus(); }\n"
            "  }\n"
            "  co_return last;\n"
            "}\n"
        )
        rules = [r for r, _ in lint_source(src)]
        self.assertIn("retry-unclassified", rules)

    def test_code_classification_clean(self):
        src = (
            "sim::Task<Status> f() {\n"
            "  for (int attempt = 0; attempt < 3; ++attempt) {\n"
            "    Status s = co_await DoWork();\n"
            "    if (s.ok()) { co_return s; }\n"
            "    if (s.code() != StatusCode::kUnavailable) { co_return s; }\n"
            "  }\n"
            "  co_return UnavailableError(\"gave up\");\n"
            "}\n"
        )
        rules = [r for r, _ in lint_source(src)]
        self.assertNotIn("retry-unclassified", rules)

    def test_retrier_await_retry_clean(self):
        src = (
            "sim::Task<Status> f() {\n"
            "  sim::Retrier retrier(sim_, policy, seed);\n"
            "  while (true) {\n"
            "    Status s = co_await DoWork();\n"
            "    if (s.ok()) { co_return s; }\n"
            "    if (!co_await retrier.AwaitRetry(s)) { co_return s; }\n"
            "  }\n"
            "}\n"
        )
        rules = [r for r, _ in lint_source(src)]
        self.assertNotIn("retry-unclassified", rules)

    def test_non_retry_loop_clean(self):
        # Ordinary work loops co_await Status all over the tree; without a
        # retry-ish name there is nothing to classify.
        src = (
            "sim::Task<Status> f() {\n"
            "  for (const auto& entry : entries) {\n"
            "    Status s = co_await Process(entry);\n"
            "    if (!s.ok()) { co_return s; }\n"
            "  }\n"
            "  co_return OkStatus();\n"
            "}\n"
        )
        self.assertEqual(lint_source(src), [])

    def test_entries_identifier_is_not_tries(self):
        # `entries` / `num_tries` must not make a loop retry-ish.
        src = (
            "sim::Task<Status> f() {\n"
            "  while (entries > 0) {\n"
            "    Status s = co_await Pop();\n"
            "    if (!s.ok()) { co_return s; }\n"
            "    --entries;\n"
            "  }\n"
            "  co_return OkStatus();\n"
            "}\n"
        )
        self.assertEqual(lint_source(src), [])

    def test_synchronous_retry_loop_out_of_scope(self):
        # No co_await: not the coroutine-retry shape this rule targets.
        src = (
            "Status f() {\n"
            "  for (int attempt = 0; attempt < 3; ++attempt) {\n"
            "    Status s = TryOnce();\n"
            "    if (s.ok()) { return s; }\n"
            "  }\n"
            "  return UnavailableError(\"gave up\");\n"
            "}\n"
        )
        rules = [r for r, _ in lint_source(src)]
        self.assertNotIn("retry-unclassified", rules)

    def test_inline_allow_suppresses(self):
        src = (
            "sim::Task<Status> f() {\n"
            "  // ros-lint: allow(retry-unclassified): probe loop, any\n"
            "  // failure is worth one more poll\n"
            "  for (int attempt = 0; attempt < 3; ++attempt) {\n"
            "    Status s = co_await DoWork();\n"
            "    if (s.ok()) { co_return s; }\n"
            "  }\n"
            "  co_return UnavailableError(\"gave up\");\n"
            "}\n"
        )
        rules = [r for r, _ in lint_source(src)]
        self.assertNotIn("retry-unclassified", rules)


class AcquireBayTest(unittest.TestCase):
    CALL = ("sim::Task<void> f() {\n"
            "  auto bay = co_await mech_->AcquireBay(tray, true);\n"
            "  (void)bay;\n"
            "}\n")

    def test_flags_direct_call(self):
        self.assertIn(("acquire-bay", 2), lint_source(self.CALL))

    def test_owner_files_exempt(self):
        # The scheduler, burn manager and the defining controller are the
        # components allowed to touch bays directly.
        for name in ("src/olfs/fetch_scheduler.cc",
                     "src/olfs/burn_manager.cc",
                     "src/olfs/mech_controller.cc",
                     "src/olfs/mech_controller.h"):
            lint = ros_lint.FileLint(name, self.CALL, set())
            rules = [f.rule for f in lint.run()]
            self.assertNotIn("acquire-bay", rules, name)

    def test_inline_allow_suppresses(self):
        src = ("sim::Task<void> f() {\n"
               "  // ros-lint: allow(acquire-bay): sequential rebuild scan\n"
               "  auto bay = co_await mech_->AcquireBay(tray, true);\n"
               "  (void)bay;\n"
               "}\n")
        rules = [r for r, _ in lint_source(src)]
        self.assertNotIn("acquire-bay", rules)

    def test_allow_above_wrapped_macro_call_suppresses(self):
        # The call sits on a continuation line of the macro; the finding
        # must anchor at the statement start so the annotation covers it.
        src = ("sim::Task<void> f() {\n"
               "  // ros-lint: allow(acquire-bay): legacy FIFO baseline\n"
               "  ROS_CO_ASSIGN_OR_RETURN(\n"
               "      bay, co_await mech_->AcquireBay(tray, true));\n"
               "}\n")
        rules = [r for r, _ in lint_source(src)]
        self.assertNotIn("acquire-bay", rules)

    def test_similar_names_and_comments_clean(self):
        src = ("sim::Task<void> f() {\n"
               "  // callers go through AcquireBay(...) eventually\n"
               "  auto a = mech_->TryAcquireBay(tray);\n"
               "  auto b = co_await sched_->AcquireForRead(address);\n"
               "  (void)a; (void)b;\n"
               "}\n")
        rules = [r for r, _ in lint_source(src)]
        self.assertNotIn("acquire-bay", rules)


class SpeculativeFetchTest(unittest.TestCase):
    CALL = ("sim::Task<void> Prefetch() {\n"
            "  auto bay = co_await scheduler_->AcquireForRead(address);\n"
            "  (void)bay;\n"
            "}\n")

    def test_flags_direct_call(self):
        self.assertIn(("speculative-fetch", 2), lint_source(self.CALL))

    def test_owner_files_exempt(self):
        # The fetch manager brokers demand leases; the scheduler defines
        # the API. Both enqueue demand legitimately.
        for name in ("src/olfs/fetch_manager.cc",
                     "src/olfs/fetch_scheduler.cc",
                     "src/olfs/fetch_scheduler.h"):
            lint = ros_lint.FileLint(name, self.CALL, set())
            rules = [f.rule for f in lint.run()]
            self.assertNotIn("speculative-fetch", rules, name)

    def test_inline_allow_suppresses(self):
        src = ("sim::Task<void> Prefetch() {\n"
               "  // ros-lint: allow(speculative-fetch): demand-priority "
               "restore\n"
               "  auto bay = co_await scheduler_->AcquireForRead(address);\n"
               "  (void)bay;\n"
               "}\n")
        rules = [r for r, _ in lint_source(src)]
        self.assertNotIn("speculative-fetch", rules)

    def test_allow_above_wrapped_macro_call_suppresses(self):
        src = ("sim::Task<void> Prefetch() {\n"
               "  // ros-lint: allow(speculative-fetch): repair path\n"
               "  ROS_CO_ASSIGN_OR_RETURN(\n"
               "      bay, co_await scheduler_->AcquireForRead(address));\n"
               "}\n")
        rules = [r for r, _ in lint_source(src)]
        self.assertNotIn("speculative-fetch", rules)

    def test_background_class_and_comments_clean(self):
        src = ("sim::Task<void> Prefetch() {\n"
               "  // readers go through AcquireForRead(...) eventually\n"
               "  scheduler_->EnqueueSpeculative(tray);\n"
               "  co_return;\n"
               "}\n")
        rules = [r for r, _ in lint_source(src)]
        self.assertNotIn("speculative-fetch", rules)


class CoawaitInConditionalTest(unittest.TestCase):
    @staticmethod
    def rules(body):
        src = "sim::Task<int> f() {\n" + body + "  co_return 0;\n}\n"
        return [(r, line) for r, line in lint_source(src)
                if r == "coawait-in-conditional"]

    def test_flags_either_branch(self):
        self.assertEqual(
            self.rules("  Status s = ok ? co_await A() : OkStatus();\n"),
            [("coawait-in-conditional", 2)])
        self.assertEqual(
            self.rules("  Status s = ok ? OkStatus()\n"
                       "                : co_await B();\n"),
            [("coawait-in-conditional", 3)])

    def test_flags_condition_and_nested_call_argument(self):
        self.assertEqual(
            self.rules("  int x = (co_await Ready()) ? 1 : 2;\n"),
            [("coawait-in-conditional", 2)])
        self.assertEqual(
            self.rules("  Use(ok ? Wrap(co_await A()) : 0);\n"),
            [("coawait-in-conditional", 2)])

    def test_nested_ternaries_report_once(self):
        self.assertEqual(
            self.rules("  int x = a ? (b ? co_await A() : 1) : 2;\n"),
            [("coawait-in-conditional", 2)])

    def test_if_condition_is_not_the_hazard(self):
        self.assertEqual(
            self.rules("  if (co_await Ready()) {\n"
                       "    y = a ? b : c;\n"
                       "  }\n"
                       "  while (!(co_await Done())) {}\n"), [])

    def test_ternary_outside_the_awaited_operand_is_clean(self):
        # Inside the awaited call's arguments, in a sibling argument, or
        # in another statement, the co_await is no ?: operand.
        self.assertEqual(
            self.rules("  Status s = co_await Foo(a ? 1 : 2);\n"
                       "  Bar(co_await X(), b ? c : d);\n"
                       "  int n = a ? 1 : 2; co_await Y();\n"), [])

    def test_lambda_body_in_an_operand_is_another_coroutine(self):
        self.assertEqual(
            self.rules("  auto t = ok ? [p]() -> sim::Task<int> {\n"
                       "    co_return co_await p->X();\n"
                       "  } : Other();\n"), [])

    def test_inline_allow_suppresses(self):
        self.assertEqual(
            self.rules("  // ros-lint: allow(coawait-in-conditional): why\n"
                       "  int x = ok ? co_await A() : 0;\n"), [])


class CoawaitTemporaryArgTest(unittest.TestCase):
    @staticmethod
    def rules(body):
        src = "sim::Task<Status> f() {\n" + body + "  co_return OkStatus();\n}\n"
        return [(r, line) for r, line in lint_source(src)
                if r == "coawait-temporary-arg"]

    def test_flags_brace_initialized_record(self):
        # The shape GCC 12 freed twice in the MV log store.
        self.assertEqual(
            self.rules("  Status s = co_await log_.Append(mvlog::Record{\n"
                       "      mvlog::RecordType::kPut, key, content});\n"),
            [("coawait-temporary-arg", 2)])
        self.assertEqual(
            self.rules("  ROS_CO_RETURN_IF_ERROR(\n"
                       "      co_await log_->Append(Rec{.key = k}));\n"),
            [("coawait-temporary-arg", 3)])

    def test_flags_lambda_converted_to_std_function(self):
        self.assertEqual(
            self.rules("  co_await sim_->Run(7, [this] { Work(); });\n"),
            [("coawait-temporary-arg", 2)])
        self.assertEqual(
            self.rules("  co_await pool.Submit(std::function<void()>(\n"
                       "      [&]() { ++n; }));\n"),
            [("coawait-temporary-arg", 2)])

    def test_flags_template_and_chained_calls(self):
        self.assertEqual(
            self.rules("  co_await Put<Rec>(std::vector<int>{1, 2});\n"
                       "  co_await a.b()->c(Rec{});\n"),
            [("coawait-temporary-arg", 2), ("coawait-temporary-arg", 3)])

    def test_named_locals_are_clean(self):
        self.assertEqual(
            self.rules("  mvlog::Record rec{mvlog::RecordType::kPut, key};\n"
                       "  Status s = co_await log_.Append(std::move(rec));\n"
                       "  std::function<void()> work = [this] { Work(); };\n"
                       "  co_await sim_->Run(7, std::move(work));\n"), [])

    def test_other_shapes_are_clean(self):
        # Subscripts, a bare braced list, a temporary outside the awaited
        # operand, and a co_await inside a lambda body.
        self.assertEqual(
            self.rules("  auto l = co_await mutex_[bay]->Lock();\n"
                       "  co_await plc_.Execute({.op = PlcOp::kGrab});\n"
                       "  Use(Rec{}, co_await A(x[0]));\n"
                       "  bool lt = co_await A() < Rec{}.n;\n"
                       "  auto t = [this]() -> sim::Task<Status> {\n"
                       "    co_return co_await B(y);\n"
                       "  };\n"), [])

    def test_inline_allow_suppresses(self):
        self.assertEqual(
            self.rules("  // ros-lint: allow(coawait-temporary-arg): why\n"
                       "  co_await log_.Append(Rec{});\n"), [])


class AllowlistTest(unittest.TestCase):
    def test_allowlist_file_filters_by_suffix_and_rule(self):
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "gen.cc")
            with open(src, "w") as fh:
                fh.write("void f() {\n  auto* p = new Foo();\n  (void)p;\n}\n")
            allow = os.path.join(tmp, "allow.txt")
            with open(allow, "w") as fh:
                fh.write("# generated code\ngen.cc:raw-new-delete\n")
            rc = ros_lint.main([src, "--allowlist", allow])
            self.assertEqual(rc, 0)
            rc = ros_lint.main([src, "--allowlist",
                                os.path.join(tmp, "missing.txt")])
            self.assertEqual(rc, 1)


if __name__ == "__main__":
    unittest.main()
