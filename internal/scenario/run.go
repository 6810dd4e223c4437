package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// ErrInput marks a RunPath failure caused by the scenario source (a file
// that does not load, a scenario that does not compile) rather than by
// writing the report; tfbench turns it into exit status 2.
var ErrInput = errors.New("bad scenario input")

// RunPath is `-scenario path` for both tfbench and tfserve: load the .tfs
// file or directory, compile against the tasking corpus, run every cell and
// emit the comparative report (see Emit). On a directory every failing file
// is reported on stderr (not just the first) and the scenarios that did
// load still compile and run; the error is returned only after the rest of
// the matrix has been emitted.
func RunPath(path string, asJSON bool, benchJSON string, stdout, stderr io.Writer) error {
	scs, loadErrs := LoadPathAll(path)
	for _, err := range loadErrs {
		fmt.Fprintf(stderr, "scenario: %v\n", err)
	}
	if len(scs) == 0 {
		return fmt.Errorf("%w: no scenario loaded from %s", ErrInput, path)
	}
	cells, err := Compile(scs)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrInput, err)
	}
	snap := RunMatrix(cells)
	if err := Emit(stdout, snap, snap.Table(), asJSON, benchJSON); err != nil {
		return err
	}
	if len(loadErrs) > 0 {
		return fmt.Errorf("%w: %d scenario file(s) failed to load", ErrInput, len(loadErrs))
	}
	return nil
}

// Emit renders a report: the table by default, the tagfree-bench/v1
// snapshot JSON on stdout with asJSON, and additionally to a file when
// benchJSON names one.
func Emit(stdout io.Writer, snap any, table string, asJSON bool, benchJSON string) error {
	js, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	js = append(js, '\n')
	if asJSON {
		_, err = stdout.Write(js)
	} else {
		_, err = io.WriteString(stdout, table)
	}
	if err != nil {
		return err
	}
	if benchJSON != "" && benchJSON != "-" {
		if err := os.WriteFile(benchJSON, js, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", benchJSON)
	}
	return nil
}
