package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Write serializes the report as indented JSON with a trailing newline.
// encoding/json emits struct fields in declaration order and sorts map
// keys, so equal reports serialize byte-identically.
func (r *Report) Write(w io.Writer) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("report: marshal: %w", err)
	}
	if _, err := w.Write(append(blob, '\n')); err != nil {
		return fmt.Errorf("report: write: %w", err)
	}
	return nil
}

// WriteFile writes the report to path, creating parent directories.
func (r *Report) WriteFile(path string) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("report: %w", err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if err := r.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
