package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCountLOC: only non-test .go lines count, keyed by package
// directory, with benchmark/, testdata and hidden directories skipped.
func TestCountLOC(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"a.go":                     "package a\n\nvar X = 1\n",
		"a_test.go":                "package a\n",
		"README.md":                "not code\n",
		"internal/m/m.go":          "package m\n",
		"internal/m/n.go":          "package m\n// two\n",
		"internal/m/m_test.go":     "package m\n",
		"benchmark/sut.go":         "package main\n",
		"internal/m/testdata/t.go": "package t\n",
		".bench_build/g.go":        "package g\n",
	}
	for name, body := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := countLOC(root)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{".": 3, "internal/m": 3, locTotal: 6}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("countLOC = %v, want %v", got, want)
	}
}
