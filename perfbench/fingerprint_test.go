package main

import (
	"reflect"
	"testing"
)

// TestFingerprintRepeats pins the benchmark's exact-count fingerprint:
// two runs at the same seed must reproduce every count bit for bit.
func TestFingerprintRepeats(t *testing.T) {
	a, err := fingerprint(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fingerprint(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fingerprint differs between runs at seed 1:\n%v\n%v", a, b)
	}
}
