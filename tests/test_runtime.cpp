/// \file test_runtime.cpp
/// The GRAPHHD_* environment-knob registry (core/runtime.hpp): the table is
/// sorted and complete, the typed accessors parse/fall back per their
/// contracts and reject unregistered names, and unknown_env_vars() catches
/// typo'd knobs.

#include "core/runtime.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>

namespace {

using namespace graphhd::core;

/// setenv/unsetenv scope guard: restores the variable's pre-test state.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) previous_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (previous_.has_value()) {
      ::setenv(name_.c_str(), previous_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> previous_;
};

TEST(EnvRegistry, TableIsSortedUniqueAndPrefixed) {
  const auto table = runtime::knobs();
  ASSERT_FALSE(table.empty());
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_EQ(std::string(table[i].name).rfind("GRAPHHD_", 0), 0u) << table[i].name;
    EXPECT_NE(table[i].description[0], '\0') << table[i].name << " lacks a description";
    if (i > 0) {
      EXPECT_LT(std::string(table[i - 1].name), std::string(table[i].name))
          << "table not strictly sorted at " << table[i].name;
    }
  }
}

TEST(EnvRegistry, FindKnobLooksUpRegisteredNamesOnly) {
  const auto* knob = runtime::find_knob("GRAPHHD_THREADS");
  ASSERT_NE(knob, nullptr);
  EXPECT_EQ(std::string(knob->name), "GRAPHHD_THREADS");
  EXPECT_EQ(runtime::find_knob("GRAPHHD_DEFINITELY_NOT_REGISTERED"), nullptr);
  EXPECT_EQ(runtime::find_knob(""), nullptr);
}

TEST(EnvRegistry, EnvSizeParsesAndFallsBack) {
  const char* name = "GRAPHHD_SHARD_CHUNK";
  ASSERT_NE(runtime::find_knob(name), nullptr) << "test needs a registered kSize knob";
  {
    ScopedEnv guard(name, "123");
    EXPECT_EQ(runtime::env_size(name, 7), 123u);
  }
  for (const char* junk : {"", "abc", "0", "-4", "1.5x"}) {
    ScopedEnv guard(name, junk);
    EXPECT_EQ(runtime::env_size(name, 7), 7u) << "value '" << junk << "'";
  }
  ScopedEnv guard(name, nullptr);
  EXPECT_EQ(runtime::env_size(name, 7), 7u);
}

TEST(EnvRegistry, EnvDoubleParsesAndFallsBack) {
  const char* name = "GRAPHHD_BENCH_SCALE";
  {
    ScopedEnv guard(name, "0.25");
    EXPECT_DOUBLE_EQ(runtime::env_double(name, 1.0), 0.25);
  }
  {
    ScopedEnv guard(name, "garbage");
    EXPECT_DOUBLE_EQ(runtime::env_double(name, 1.0), 1.0);
  }
  ScopedEnv guard(name, nullptr);
  EXPECT_DOUBLE_EQ(runtime::env_double(name, 1.0), 1.0);
}

TEST(EnvRegistry, EnvRawReturnsNullForUnsetOrEmpty) {
  const char* name = "GRAPHHD_SKIP_FIGURE";
  {
    ScopedEnv guard(name, "yes");
    const char* raw = runtime::env_raw(name);
    ASSERT_NE(raw, nullptr);
    EXPECT_EQ(std::string(raw), "yes");
  }
  {
    ScopedEnv guard(name, "");
    EXPECT_EQ(runtime::env_raw(name), nullptr);
  }
  ScopedEnv guard(name, nullptr);
  EXPECT_EQ(runtime::env_raw(name), nullptr);
}

TEST(EnvRegistry, AccessorsThrowOnUnregisteredNames) {
  EXPECT_THROW((void)runtime::env_size("GRAPHHD_NOT_A_KNOB", 1), std::logic_error);
  EXPECT_THROW((void)runtime::env_double("GRAPHHD_NOT_A_KNOB", 1.0), std::logic_error);
  EXPECT_THROW((void)runtime::env_raw("GRAPHHD_NOT_A_KNOB"), std::logic_error);
}

TEST(EnvRegistry, AccessorsEnforceTheRegisteredKind) {
  // GRAPHHD_KERNEL is a string knob; the numeric accessors must refuse it
  // rather than parse garbage.
  EXPECT_THROW((void)runtime::env_size("GRAPHHD_KERNEL", 1), std::logic_error);
  EXPECT_THROW((void)runtime::env_double("GRAPHHD_KERNEL", 1.0), std::logic_error);
}

TEST(EnvRegistry, BuildTimeKnobsAreListedButNotReadable) {
  const auto* knob = runtime::find_knob("GRAPHHD_BUILD_TESTS");
  ASSERT_NE(knob, nullptr);
  EXPECT_TRUE(knob->build_time);
  // Registered so an exported CMake option doesn't trip the unknown-variable
  // warning, but runtime code must not read it.
  EXPECT_THROW((void)runtime::env_raw("GRAPHHD_BUILD_TESTS"), std::logic_error);
}

TEST(EnvRegistry, CurrentValueReflectsTheEnvironment) {
  const auto* knob = runtime::find_knob("GRAPHHD_SHARD_DIM");
  ASSERT_NE(knob, nullptr);
  {
    ScopedEnv guard(knob->name, "4096");
    const auto value = runtime::current_value(*knob);
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, "4096");
  }
  ScopedEnv guard(knob->name, nullptr);
  EXPECT_FALSE(runtime::current_value(*knob).has_value());
}

TEST(EnvRegistry, UnknownEnvVarsCatchesTypos) {
  const char* typo = "GRAPHHD_TREADS_TYPO_FOR_TEST";
  {
    ScopedEnv guard(typo, "4");
    const auto unknown = runtime::unknown_env_vars();
    bool found = false;
    for (const auto& name : unknown) found |= name == typo;
    EXPECT_TRUE(found) << "typo'd variable not reported";
    for (std::size_t i = 1; i < unknown.size(); ++i) {
      EXPECT_LE(unknown[i - 1], unknown[i]) << "unknown_env_vars not sorted";
    }
  }
  ScopedEnv guard(typo, nullptr);
  const auto unknown = runtime::unknown_env_vars();
  for (const auto& name : unknown) EXPECT_NE(name, typo);
}

TEST(EnvRegistry, RegisteredVariablesAreNeverReportedUnknown) {
  ScopedEnv guard("GRAPHHD_THREADS", "2");
  for (const auto& name : runtime::unknown_env_vars()) {
    EXPECT_EQ(runtime::find_knob(name), nullptr) << name;
  }
}

}  // namespace
