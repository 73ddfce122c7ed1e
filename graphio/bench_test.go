package graphio

import (
	"bytes"
	"testing"

	"kvcc/gen"
)

// benchEdgeList is a 250k-edge preferential-attachment graph in the form
// WriteEdgeList produces: each vertex's higher neighbors on consecutive
// lines, so a line's first label repeats down its run.
func benchEdgeList(b *testing.B) []byte {
	b.Helper()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, gen.BarabasiAlbert(50000, 6, 5, 1)); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkStreamEdgeList(b *testing.B) {
	data := benchEdgeList(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := StreamEdgeList(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadEdgeList(b *testing.B) {
	data := benchEdgeList(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadEdgeList(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
