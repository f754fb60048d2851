// Command slfe-convert converts graphs between the text edge-list format,
// the packed binary format and the compressed CSR format (input format is
// sniffed automatically; output format follows the extension, .slfg =
// binary, .slfc = compressed CSR).
//
// Usage:
//
//	slfe-convert -i graph.txt -o graph.slfg
//	slfe-convert -i graph.slfg -o graph.slfc
//	slfe-convert -check graph.slfc
package main

import (
	"flag"
	"fmt"
	"os"

	"slfe/internal/loader"
	"slfe/internal/store"
)

func main() {
	in := flag.String("i", "", "input path (required unless -check)")
	out := flag.String("o", "", "output path (required unless -check; .slfg = binary, .slfc = compressed CSR)")
	check := flag.String("check", "", "deep-validate an .slfc file (every block, every id) and exit")
	flag.Parse()
	if *check != "" {
		g, err := store.Open(*check)
		if err != nil {
			fmt.Fprintln(os.Stderr, "slfe-convert:", err)
			os.Exit(1)
		}
		defer g.Close()
		if err := g.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "slfe-convert:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ok: %v\n", g)
		return
	}
	if *in == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "slfe-convert: -i and -o are required")
		os.Exit(2)
	}
	g, err := loader.LoadFile(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slfe-convert:", err)
		os.Exit(1)
	}
	if err := loader.SaveFile(*out, g); err != nil {
		fmt.Fprintln(os.Stderr, "slfe-convert:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "converted %v -> %s\n", g, *out)
}
