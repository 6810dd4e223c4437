package gc

import (
	"reflect"
	"testing"
)

// TestMergeStatsCoversEveryWorkerCounter: a worker counts into a Stats block
// of its own and mergeStats folds it into the collector's, so every counter
// either is summed there or is named here as one no worker moves — a counter
// added later cannot be dropped from -par totals silently.
func TestMergeStatsCoversEveryWorkerCounter(t *testing.T) {
	notWorker := map[string]bool{
		"Collections": true, // counted once per cycle
		"TypeGCBuilt": true, // read off the builder at the end of a cycle
		"PauseNS":     true, // the cycle's own clock
		"PrunedWords": true, // pruning never runs fanned out
	}
	var from, into Stats
	fv := reflect.ValueOf(&from).Elem()
	for i := 0; i < fv.NumField(); i++ {
		if fv.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("Stats.%s is not an int64: teach this test about it", fv.Type().Field(i).Name)
		}
		fv.Field(i).SetInt(int64(i + 1))
	}
	mergeStats(&into, &from)
	mergeStats(&into, &from)
	iv := reflect.ValueOf(into)
	for i := 0; i < iv.NumField(); i++ {
		name, got := iv.Type().Field(i).Name, iv.Field(i).Int()
		switch {
		case notWorker[name] && got != 0:
			t.Errorf("Stats.%s is listed as no worker's counter but mergeStats sums it", name)
		case !notWorker[name] && got != 2*int64(i+1):
			t.Errorf("Stats.%s: merging %d twice gives %d; sum it in mergeStats or list it here", name, i+1, got)
		}
	}
}
