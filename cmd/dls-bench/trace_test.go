package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestTraceBenchWritesChromeTrace smoke-tests the -trace mode: the
// canned faulty multiload session must produce a parsable Chrome
// trace-event array.
func TestTraceBenchWritesChromeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "TRACE.json")
	if err := runTraceBench(42, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace is not a Chrome trace object: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
}
