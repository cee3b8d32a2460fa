// Command sslint is the multichecker for the repo's determinism analyzers
// (internal/lint). It loads the requested packages (default ./...), runs
// every analyzer under the default scope and prints the findings; the exit
// status is 1 if there is any finding, 2 on operational failure.
//
// Usage:
//
//	go run ./cmd/sslint [-json] [-sarif file] [-write-schema [-schema-dir dir]] [-list] [packages...]
//
// Package patterns are module-relative ("./...", "./internal/core",
// "repro/internal/..."). -json emits machine-readable findings for CI
// annotation, sorted by (file, line, analyzer) with module-relative
// forward-slash paths and stable IDs, so the artifact is byte-stable
// across machines. -sarif additionally writes a SARIF 2.1.0 log for
// code-scanning upload.
//
// The schema golden (api.schema.json at the module root) pins the /v1
// wire contract; the wireschema analyzer fails on any drift from it.
// -write-schema re-extracts it from source and rewrites the golden — the
// sanctioned move after a deliberate additive API change; review the diff
// like any contract change. The checkpoint format is pinned by tests in
// internal/checkpoint (its layout digest), not by a golden.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/lint"
	"repro/internal/lint/load"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON (for CI annotation)")
	sarifOut := flag.String("sarif", "", "write findings as SARIF 2.1.0 to `file` (\"-\" for stdout)")
	writeSchema := flag.Bool("write-schema", false, "re-extract the api.schema.json golden and exit")
	schemaDir := flag.String("schema-dir", "", "directory to write the schema golden into (default: the module root)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-14s %s\n", a.Name, firstLine(a.Doc))
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, err := moduleRoot()
	if err != nil {
		fatal(err)
	}
	loader, err := load.NewModuleLoader(root)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fatal(err)
	}
	scope := lint.DefaultScope()

	if *writeSchema {
		dir := *schemaDir
		if dir == "" {
			dir = root
		}
		api := lint.BuildAPIContract(pkgs, scope)
		if api == nil {
			fatal(fmt.Errorf("no wire contract extracted; load ./... so the /v1 package is present"))
		}
		path := filepath.Join(dir, lint.APISchemaFile)
		if err := lint.WriteSchemaFile(path, api); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "sslint: wrote %s\n", path)
		return
	}

	findings, err := lint.Run(pkgs, lint.All(), scope)
	if err != nil {
		fatal(err)
	}
	findings = lint.Finalize(findings, root)

	switch {
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fatal(err)
		}
	default:
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s: %s\n", f.File, f.Line, f.Column, f.Analyzer, f.Message)
		}
	}
	if *sarifOut != "" {
		data, err := lint.SARIF(findings)
		if err != nil {
			fatal(err)
		}
		data = append(data, '\n')
		if *sarifOut == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*sarifOut, data, 0o644); err != nil {
			fatal(err)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "sslint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func firstLine(s string) string {
	for i := range s {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sslint:", err)
	os.Exit(2)
}
