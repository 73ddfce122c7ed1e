package main

import (
	"bytes"
	"testing"
)

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"no-graphs", nil, 2},
		{"bad-graph-flag", []string{"-graph", "nopath"}, 2},
		{"dup-graph-name", []string{"-graph", "a=x", "-graph", "a=y"}, 2},
		{"missing-file", []string{"-graph", "g=/does/not/exist"}, 1},
		{"bad-flag", []string{"-wat"}, 2},
		{"removed-index-measures", []string{"-demo", "-index-measures", "kvcc,bogus"}, 2},
		{"removed-index-max-k", []string{"-demo", "-index-max-k", "3"}, 2},
		{"removed-max-timeout", []string{"-demo", "-max-timeout", "1s"}, 2},
		{"stray-arg", []string{"-demo", "stray", "-data-dir", t.TempDir()}, 2},
		{"bad-quota", []string{"-demo", "-quota", "0"}, 2},
		{"empty-data-dir", []string{"-data-dir", t.TempDir()}, 2},
	}
	for _, tc := range cases {
		var out, errBuf bytes.Buffer
		if code := run(tc.args, &out, &errBuf); code != tc.code {
			t.Errorf("%s: exit %d, want %d (stderr: %s)", tc.name, code, tc.code, errBuf.String())
		}
	}
}

func TestGraphFlagsString(t *testing.T) {
	g := graphFlags{}
	if err := g.Set("social=social.txt"); err != nil {
		t.Fatal(err)
	}
	if got := g.String(); got != "social=social.txt" {
		t.Fatalf("String() = %q", got)
	}
}
