package cli

import (
	"reflect"
	"strings"
	"testing"
)

// TestSimHeapFlag checks -heap-gb reaches the simulator: a tight heap
// must lengthen the run, and a negative one must be rejected at flag
// validation.
func TestSimHeapFlag(t *testing.T) {
	base, _, code := run(t, "sim", "-slaves", "3", "-cores", "8", "-local", "hdd", "-seed", "7", "terasort")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	tight, _, code := run(t, "sim", "-slaves", "3", "-cores", "8", "-local", "hdd", "-seed", "7",
		"-heap-gb", "0.25", "terasort")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	total := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "total=") {
				return line
			}
		}
		t.Fatalf("no total= line in %q", out)
		return ""
	}
	if total(base) == total(tight) {
		t.Errorf("0.25 GB heap left the simulated total unchanged: %s", total(base))
	}

	_, _, code = run(t, "sim", "-heap-gb", "-1", "terasort")
	if code != 1 {
		t.Errorf("negative heap exit = %d, want 1", code)
	}
}

func TestParseHeapGBs(t *testing.T) {
	got, err := parseHeapGBs(" 4, 16 ,64")
	if err != nil || !reflect.DeepEqual(got, []float64{4, 16, 64}) {
		t.Errorf("parseHeapGBs = %v, %v", got, err)
	}
	if got, err := parseHeapGBs(""); err != nil || got != nil {
		t.Errorf("empty parse = %v, %v, want nil axis", got, err)
	}
	for _, bad := range []string{"x", "0", "-4", "5000", "4,,8", "2,2", "4,16,4"} {
		if _, err := parseHeapGBs(bad); err == nil {
			t.Errorf("parseHeapGBs(%q) accepted", bad)
		}
	}
}
