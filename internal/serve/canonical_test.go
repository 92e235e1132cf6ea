package serve

import (
	"fmt"
	"strings"
	"testing"
)

func TestCanonicalShardKeyRoutes(t *testing.T) {
	cases := []struct {
		name   string
		method string
		path   string
		body   string
	}{
		{"workloads", "GET", "/api/v1/workloads", ""},
		{"predict", "POST", "/api/v1/predict", `{"workload":"lr-small","slaves":3,"cores":8}`},
		{"simulate", "POST", "/api/v1/simulate", `{"workload":"sql","slaves":3,"cores":8}`},
		{"whatif", "POST", "/api/v1/whatif", `{"workload":"lr-small","slaves":3,"max_cores":16}`},
		{"recommend", "POST", "/api/v1/recommend", `{"workload":"lr-small","slaves":3,"top":3}`},
		{"sweep", "POST", "/api/v1/sweep", `{"workloads":["sql"],"nodes":[3],"cores":[4,8]}`},
	}
	keys := map[string]bool{}
	for _, tc := range cases {
		key, ok := CanonicalShardKey(tc.method, tc.path, []byte(tc.body))
		if !ok {
			t.Fatalf("%s: CanonicalShardKey not ok", tc.name)
		}
		if keys[key] {
			t.Errorf("%s: key collides with another route's", tc.name)
		}
		keys[key] = true
	}
}

// TestCanonicalShardKeyDefaultsCollapse pins that a body spelling out
// the defaults shards identically to one omitting them — the same
// collapse the replica cache performs.
func TestCanonicalShardKeyDefaultsCollapse(t *testing.T) {
	a, ok1 := CanonicalShardKey("POST", "/api/v1/predict",
		[]byte(`{"workload":"lr-small"}`))
	b, ok2 := CanonicalShardKey("POST", "/api/v1/predict",
		[]byte(`{"workload":"lr-small","slaves":10,"cores":36,"hdfs":"ssd","local":"ssd","mode":"doppio"}`))
	if !ok1 || !ok2 {
		t.Fatal("CanonicalShardKey not ok")
	}
	if a != b {
		t.Errorf("defaults did not collapse:\n  %q\n  %q", a, b)
	}
	c, ok := CanonicalShardKey("POST", "/api/v1/predict",
		[]byte(`{"workload":"lr-small","slaves":4}`))
	if !ok {
		t.Fatal("CanonicalShardKey not ok")
	}
	if c == a {
		t.Error("different requests produced the same shard key")
	}
}

// TestCanonicalShardKeyHeapOrder pins that a recommend's heap axis
// shards as a set: its values in any order give one key, the key the
// replica caches the answer under.
func TestCanonicalShardKeyHeapOrder(t *testing.T) {
	a, ok1 := CanonicalShardKey("POST", "/api/v1/recommend", []byte(`{"workload":"sql","heap_gbs":[2,4,0.5]}`))
	b, ok2 := CanonicalShardKey("POST", "/api/v1/recommend", []byte(`{"workload":"sql","heap_gbs":[0.5,2,4]}`))
	if !ok1 || !ok2 {
		t.Fatal("CanonicalShardKey not ok")
	}
	if a != b {
		t.Errorf("heap order changed the shard key:\n  %q\n  %q", a, b)
	}
}

func TestCanonicalShardKeyRejects(t *testing.T) {
	for _, tc := range []struct {
		name   string
		method string
		path   string
		body   string
	}{
		{"unknown route", "POST", "/api/v1/nonsense", `{}`},
		{"wrong method", "GET", "/api/v1/predict", ``},
		{"bad json", "POST", "/api/v1/predict", `{"workload":`},
		{"unknown field", "POST", "/api/v1/predict", `{"workload":"lr-small","slave":10}`},
		{"invalid value", "POST", "/api/v1/predict", `{"workload":"lr-small","slaves":-4}`},
		{"trailing garbage", "POST", "/api/v1/predict", `{"workload":"lr-small"} x`},
		{"repeated heap", "POST", "/api/v1/recommend", `{"workload":"sql","slaves":10,"top":4,"heap_gbs":[2,2]}`},
	} {
		if key, ok := CanonicalShardKey(tc.method, tc.path, []byte(tc.body)); ok {
			t.Errorf("%s: unexpectedly canonicalized to %q", tc.name, key)
		}
	}
}

// FuzzCanonicalShardKey pins the property cluster routing depends on:
// JSON bodies that differ only in member order (and whitespace) for the
// same logical request canonicalize to the same hash-ring key. Shard
// stability under re-encoding is what preserves byte-identical cache
// hits when a client, proxy, or SDK re-serializes the request.
func FuzzCanonicalShardKey(f *testing.F) {
	f.Add("lr-small", 3, 8, "ssd", "hdd")
	f.Add("sql", 10, 36, "ssd", "ssd")
	f.Add("pagerank", 1, 1, "hdd", "pd-ssd:500GB")
	f.Add("nope", 0, -3, "", "floppy")
	f.Add("terasort", 1024, 1024, "pd-standard:2TB", "ssd")
	f.Fuzz(func(t *testing.T, workload string, slaves, cores int, hdfs, local string) {
		if strings.ContainsAny(workload+hdfs+local, "\"\\\x00") {
			t.Skip("quoting would change the JSON encoding, not the request")
		}
		fields := []string{
			fmt.Sprintf("%q:%q", "workload", workload),
			fmt.Sprintf("%q:%d", "slaves", slaves),
			fmt.Sprintf("%q:%d", "cores", cores),
			fmt.Sprintf("%q:%q", "hdfs", hdfs),
			fmt.Sprintf("%q:%q", "local", local),
		}
		// Two member orders and two whitespace styles for one request.
		ordered := "{" + strings.Join(fields, ",") + "}"
		reversed := make([]string, len(fields))
		for i, fld := range fields {
			reversed[len(fields)-1-i] = fld
		}
		shuffled := "{\n  " + strings.Join(reversed, " ,\n  ") + " }"

		k1, ok1 := CanonicalShardKey("POST", "/api/v1/predict", []byte(ordered))
		k2, ok2 := CanonicalShardKey("POST", "/api/v1/predict", []byte(shuffled))
		if ok1 != ok2 {
			t.Fatalf("permutation changed acceptance: %v vs %v\n%s\n%s", ok1, ok2, ordered, shuffled)
		}
		if k1 != k2 {
			t.Fatalf("permutation changed the shard key:\n  %q\n  %q", k1, k2)
		}
	})
}
