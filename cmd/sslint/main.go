// Command sslint is the multichecker for the repo's determinism and
// nil-safety analyzers (internal/lint). It loads the requested packages
// (default ./...), runs every analyzer under the default scope, subtracts
// the checked-in ratchet baseline and prints the fresh findings; the exit
// status is 1 if anything survived (fresh findings or stale baseline
// entries), 2 on operational failure.
//
// Usage:
//
//	go run ./cmd/sslint [-json] [-sarif file] [-baseline file] [-write-baseline] [-write-schema [-schema-dir dir]] [-list] [-unscoped] [packages...]
//
// Package patterns are module-relative ("./...", "./internal/core",
// "repro/internal/..."). -json emits machine-readable findings for CI
// annotation, sorted by (file, line, analyzer) with module-relative
// forward-slash paths, so the artifact is byte-stable across machines.
// -sarif additionally writes a SARIF 2.1.0 log for code-scanning upload.
// -unscoped drops the scope configuration and runs every analyzer over
// every requested package — useful to preview what the gate would say
// about code that is currently exempt.
//
// The baseline (lint.baseline.json at the module root by default) is the
// one-way ratchet: findings listed there are grandfathered debt, anything
// new fails, and a baseline entry that no longer matches any finding also
// fails — pay-down must shrink the file. -write-baseline regenerates it
// from the current findings (for the commit that introduces the gate or
// intentionally accepts debt; review the diff).
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
	jsonOut := flag.Bool("json", false, "emit fresh findings as JSON (for CI annotation)")
	sarifOut := flag.String("sarif", "", "write fresh findings as SARIF 2.1.0 to `file` (\"-\" for stdout)")
	baselinePath := flag.String("baseline", "", "ratchet baseline `file` (default: lint.baseline.json at the module root)")
	writeBaseline := flag.Bool("write-baseline", false, "regenerate the baseline from current findings and exit")
	writeSchema := flag.Bool("write-schema", false, "re-extract the api.schema.json golden and exit")
	schemaDir := flag.String("schema-dir", "", "directory to write the schema golden into (default: the module root)")
	list := flag.Bool("list", false, "list analyzers and exit")
	unscoped := flag.Bool("unscoped", false, "ignore scope config: run all analyzers on all requested packages")
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
	if *unscoped {
		scope = nil
	}

	if *writeSchema {
		dir := *schemaDir
		if dir == "" {
			dir = root
		}
		api := lint.BuildAPIContract(pkgs, lint.DefaultScope())
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

	bpath := *baselinePath
	if bpath == "" {
		bpath = filepath.Join(root, lint.BaselineFile)
	}
	if *writeBaseline {
		if err := lint.BaselineOf(findings).Write(bpath); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "sslint: wrote %d baseline entr%s to %s\n",
			len(findings), plural(len(findings), "y", "ies"), bpath)
		return
	}
	baseline, err := lint.LoadBaseline(bpath)
	if err != nil {
		fatal(err)
	}
	fresh, stale := baseline.Apply(findings)

	switch {
	case *jsonOut:
		if fresh == nil {
			fresh = []lint.Finding{} // "[]", not "null", for annotation tooling
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(fresh); err != nil {
			fatal(err)
		}
	default:
		for _, f := range fresh {
			fmt.Printf("%s:%d:%d: %s: %s\n", f.File, f.Line, f.Column, f.Analyzer, f.Message)
		}
	}
	if *sarifOut != "" {
		data, err := lint.SARIF(fresh)
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
	for _, e := range stale {
		fmt.Fprintf(os.Stderr, "sslint: stale baseline entry %s (%s, %s): the finding is gone — shrink %s\n",
			e.ID, e.Analyzer, e.File, filepath.Base(bpath))
	}
	if len(fresh) > 0 || len(stale) > 0 {
		fmt.Fprintf(os.Stderr, "sslint: %d fresh finding(s), %d stale baseline entr%s\n",
			len(fresh), len(stale), plural(len(stale), "y", "ies"))
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

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
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
