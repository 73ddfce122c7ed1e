package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// writeFixture writes two K5s joined by a single edge: two 3-VCCs.
func writeFixture(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("# two cliques\n")
	for c := 0; c < 2; c++ {
		for i := 0; i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				sb.WriteString(strconv.Itoa(c*5+i) + "\t" + strconv.Itoa(c*5+j) + "\n")
			}
		}
	}
	sb.WriteString("4 5\n")
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunEnumerates(t *testing.T) {
	in := writeFixture(t)
	for _, algo := range []string{"basic", "ns", "gs", "star"} {
		var out, errBuf bytes.Buffer
		code := run([]string{"-k", "3", "-in", in, "-algo", algo}, &out, &errBuf)
		if code != 0 {
			t.Fatalf("algo %s: exit %d, stderr: %s", algo, code, errBuf.String())
		}
		if got := strings.Count(out.String(), "# component"); got != 2 {
			t.Fatalf("algo %s: %d components, want 2\n%s", algo, got, out.String())
		}
	}
}

func TestRunStats(t *testing.T) {
	in := writeFixture(t)
	var out, errBuf bytes.Buffer
	if code := run([]string{"-k", "3", "-in", in, "-stats"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d", code)
	}
	// The bridge between the two K5s makes its ends cut vertices: one
	// block split.
	for _, want := range []string{"components: 2", "block splits: 1"} {
		if !strings.Contains(errBuf.String(), want) {
			t.Fatalf("stats missing %q:\n%s", want, errBuf.String())
		}
	}
}

func TestRunOutputFile(t *testing.T) {
	in := writeFixture(t)
	outPath := filepath.Join(t.TempDir(), "res.txt")
	var out, errBuf bytes.Buffer
	if code := run([]string{"-k", "3", "-in", in, "-out", outPath}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "# component 0") {
		t.Fatalf("output file content:\n%s", data)
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"missing-in", []string{"-k", "3"}, 2},
		{"bad-algo", []string{"-k", "3", "-in", "x", "-algo", "nope"}, 2},
		{"missing-file", []string{"-k", "3", "-in", "/does/not/exist"}, 1},
		{"bad-flag", []string{"-wat"}, 2},
	}
	for _, tc := range cases {
		var out, errBuf bytes.Buffer
		if code := run(tc.args, &out, &errBuf); code != tc.code {
			t.Errorf("%s: exit %d, want %d (stderr: %s)", tc.name, code, tc.code, errBuf.String())
		}
	}
}

func TestRunBadK(t *testing.T) {
	in := writeFixture(t)
	var out, errBuf bytes.Buffer
	if code := run([]string{"-k", "0", "-in", in}, &out, &errBuf); code != 1 {
		t.Fatalf("k=0 should fail with exit 1, got %d", code)
	}
}
