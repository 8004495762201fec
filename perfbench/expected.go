package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// expectedJSON pins every checked output value, per workload, as produced
// by the program when the benchmark was defined. A speed-only change must
// leave all of them identical.
//
//go:embed expected.json
var expectedJSON []byte

func loadExpected() (map[string]map[string]string, error) {
	exp := map[string]map[string]string{}
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return exp, nil
}
