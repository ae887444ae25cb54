package icv

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// envFields lists every variable FromEnv reads, in its parse order, with
// the Set field it writes.
var envFields = [...]struct {
	name  string
	field func(*Set) any
}{
	{"OMP_NUM_THREADS", func(s *Set) any { return s.NumThreads }},
	{"OMP_DYNAMIC", func(s *Set) any { return s.Dynamic }},
	{"OMP_SCHEDULE", func(s *Set) any { return s.RunSched }},
	{"OMP_MAX_ACTIVE_LEVELS", func(s *Set) any { return s.MaxActiveLevels }},
	{"OMP_NESTED", func(s *Set) any { return s.MaxActiveLevels }},
	{"OMP_THREAD_LIMIT", func(s *Set) any { return s.ThreadLimit }},
	{"OMP_WAIT_POLICY", func(s *Set) any { return s.Wait }},
	{"OMP_PROC_BIND", func(s *Set) any { return s.Bind }},
	{"OMP_STACKSIZE", func(s *Set) any { return s.StackSizeBytes }},
	{"OMP_DEFAULT_DEVICE", func(s *Set) any { return s.DefaultDevice }},
	{"OMP_TARGET_OFFLOAD", func(s *Set) any { return s.TargetOffload }},
	{"OMP_DISPLAY_ENV", func(s *Set) any { return s.DisplayEnv }},
}

// FuzzFromEnv feeds one fuzzed string per variable through FromEnv (an
// empty string leaves the variable unset) and checks that:
//   - parsing never panics;
//   - every error names a set variable and its value, and that variable's
//     field keeps its Default() value;
//   - every level's team size and the thread limit are at least 1;
//   - an accepted set, re-fed through the values Display prints, displays
//     identically.
//
// Run it with: go test -fuzz=FuzzFromEnv ./internal/icv/
func FuzzFromEnv(f *testing.F) {
	// TestFromEnvFullSet and TestFromEnvBadValuesKeepDefaults.
	f.Add("8,4,2", "true", "guided,7", "3", "", "64", "PASSIVE", "spread,close", "4M", "", "", "")
	f.Add("zero", "maybe", "chaotic,1", "", "", "", "", "", "", "", "", "")
	f.Fuzz(func(t *testing.T, numThreads, dynamic, schedule, maxLevels, nested, threadLimit,
		wait, bind, stackSize, device, offload, display string) {
		vals := [len(envFields)]string{numThreads, dynamic, schedule, maxLevels, nested,
			threadLimit, wait, bind, stackSize, device, offload, display}
		m := map[string]string{}
		for i, v := range vals {
			if v != "" {
				m[envFields[i].name] = v
			}
		}
		s, errs := FromEnv(env(m))
		checkEnvErrors(t, s, m, errs)
		for l := 0; l <= len(s.NumThreads); l++ {
			if n := s.NumThreadsAt(l); n < 1 {
				t.Fatalf("NumThreadsAt(%d) = %d from %q", l, n, m)
			}
		}
		if s.ThreadLimit < 1 {
			t.Fatalf("ThreadLimit = %d from %q", s.ThreadLimit, m)
		}
		if len(errs) == 0 {
			shown := s.Display()
			again, _ := FromEnv(env(displayedEnv(t, shown)))
			if got := again.Display(); got != shown {
				t.Fatalf("re-fed Display differs for %q:\n%s\nvs\n%s", m, shown, got)
			}
		}
	})
}

// checkEnvErrors checks that each error names a set variable with its
// value and that the variable's field kept its default. OMP_NESTED and
// OMP_MAX_ACTIVE_LEVELS write one field, so a bad value of one is checked
// against the default only when the other is unset.
func checkEnvErrors(t *testing.T, s *Set, m map[string]string, errs []error) {
	def := Default()
	for _, err := range errs {
		named := false
		for _, f := range envFields {
			v, ok := m[f.name]
			if !ok || !strings.HasPrefix(err.Error(), fmt.Sprintf("icv: %s=%q: ", f.name, v)) {
				continue
			}
			named = true
			_, levels := m["OMP_MAX_ACTIVE_LEVELS"]
			_, nested := m["OMP_NESTED"]
			if (f.name == "OMP_NESTED" && levels) || (f.name == "OMP_MAX_ACTIVE_LEVELS" && nested) {
				continue
			}
			if got, want := f.field(s), f.field(def); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: %s field = %v, want default %v", err, f.name, got, want)
			}
		}
		if !named {
			t.Fatalf("error %q names no variable set in %q", err, m)
		}
	}
}

// displayedEnv turns Display's "  [host] VAR = 'value'" rows back into an
// environment.
func displayedEnv(t *testing.T, shown string) map[string]string {
	m := map[string]string{}
	for _, line := range strings.Split(shown, "\n") {
		row, ok := strings.CutPrefix(strings.TrimSpace(line), "[host] ")
		if !ok {
			continue
		}
		name, val, ok := strings.Cut(row, " = ")
		if !ok || len(val) < 2 {
			t.Fatalf("malformed Display row %q", line)
		}
		m[name] = val[1 : len(val)-1]
	}
	return m
}
