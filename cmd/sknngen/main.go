// Command sknngen generates synthetic datasets with the paper's
// parameterization (Section 5: uniform attribute values, swept n and m)
// and writes them as plaintext CSV for sknnquery and sknnd. It only
// generates data: Alice's encrypt-once setup is sknnd keygen + sknnd
// encrypt (+ sknnd split for a sharded deployment).
//
// Usage:
//
//	sknngen -n 2000 -m 6 -bits 8 -seed 1 [-blobs 8] [-o data.csv]
//
// -blobs switches the generator to clustered Gaussian-ish data (the
// workload a clustered index is built for).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"sknn/internal/dataset"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sknngen: ")
	var (
		n     = flag.Int("n", 2000, "number of records")
		m     = flag.Int("m", 6, "number of attributes")
		bits  = flag.Int("bits", 8, "attribute domain size in bits")
		seed  = flag.Int64("seed", 1, "generator seed (deterministic output)")
		blobs = flag.Int("blobs", 0, "generate this many Gaussian-ish blobs instead of uniform data (0 = uniform)")
		out   = flag.String("o", "", "CSV output file (default stdout)")
	)
	flag.Parse()

	var (
		tbl *dataset.Table
		err error
	)
	if *blobs > 0 {
		tbl, err = dataset.GenerateClustered(*seed, *n, *m, *bits, *blobs)
	} else {
		tbl, err = dataset.Generate(*seed, *n, *m, *bits)
	}
	if err != nil {
		log.Fatal(err)
	}

	if *out == "" {
		if err := tbl.WriteCSV(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := tbl.WriteCSV(f); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d×%d table (attrbits=%d, l=%d) to %s\n",
		tbl.N(), tbl.M(), tbl.AttrBits, tbl.DomainBits(), *out)
}
