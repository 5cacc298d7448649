// Retail analytics with SQL: a sales table with a dictionary-encoded
// categorical column (region), queried through the SQL front-end with
// string predicates and GROUP BY (Section 4.5 "Extensions" of the paper:
// categorical queries via dictionary encoding, group-bys rewritten as
// equality predicates). SQL resolves its FROM table through a
// pass.Session. The synopsis is then persisted and restored — the
// expensive optimisation runs once, query nodes just load.
//
// Run with: go run ./examples/retail_sql
package main

import (
	"bytes"
	"fmt"
	"log"
	"math"

	"repro/pass"
)

func main() {
	regions := []string{"apac", "emea", "latam", "na"}
	// simulate a year of daily sales per region with different levels and
	// seasonality per region
	var regionCol []string
	var dayCol, revenue []float64
	seed := uint64(20240612)
	next := func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed>>11) / (1 << 53)
	}
	for day := 0; day < 365; day++ {
		for r, name := range regions {
			// several transactions per region-day
			for tx := 0; tx < 120; tx++ {
				base := 100 + 60*float64(r)
				season := 1 + 0.3*math.Sin(2*math.Pi*float64(day)/365+float64(r))
				regionCol = append(regionCol, name)
				dayCol = append(dayCol, float64(day))
				revenue = append(revenue, base*season*(0.5+next()))
			}
		}
	}
	codes, dict := pass.EncodeStrings(regionCol)
	tbl := pass.NewTable([]string{"region", "day"}, "revenue")
	for i := range codes {
		tbl.Append([]float64{codes[i], dayCol[i]}, revenue[i])
	}
	if err := tbl.SetDict("region", dict); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sales table: %d transactions, %d regions\n\n", tbl.Len(), dict.Categories())

	syn, err := pass.BuildMulti(tbl, pass.Options{
		Partitions: 128,
		SampleRate: 0.02,
		Seed:       17,
	})
	if err != nil {
		log.Fatal(err)
	}

	// SQL resolves the FROM table against a session catalog
	sess := pass.NewSession()
	if err := sess.Register("sales", syn); err != nil {
		log.Fatal(err)
	}

	// scalar SQL with a string predicate
	q1 := "SELECT SUM(revenue) FROM sales WHERE region = 'emea' AND day BETWEEN 0 AND 89"
	res, err := sess.Exec(q1)
	if err != nil {
		log.Fatal(err)
	}
	code, _ := dict.Code("emea")
	truth, _ := tbl.Exact(pass.Sum, pass.Range{Lo: code, Hi: code}, pass.Range{Lo: 0, Hi: 89})
	fmt.Println(q1)
	fmt.Printf("  ≈ %.0f ± %.0f   (exact %.0f, err %.2f%%)\n\n",
		res.Scalar.Estimate, res.Scalar.CIHalf, truth,
		math.Abs(res.Scalar.Estimate-truth)/truth*100)

	// GROUP BY over the dictionary column
	q2 := "SELECT AVG(revenue) FROM sales WHERE day BETWEEN 180 AND 269 GROUP BY region"
	res, err = sess.Exec(q2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(q2)
	for _, g := range res.Groups {
		if g.NoMatch {
			fmt.Printf("  %-8s (no data)\n", g.Label)
			continue
		}
		c, _ := dict.Code(g.Label)
		t, _ := tbl.Exact(pass.Avg, pass.Range{Lo: c, Hi: c}, pass.Range{Lo: 180, Hi: 269})
		fmt.Printf("  %-8s ≈ %8.2f ± %6.2f   (exact %8.2f)\n", g.Label, g.Answer.Estimate, g.Answer.CIHalf, t)
	}

	// persist and restore: the optimised synopsis ships to query nodes
	fmt.Println("\npersisting the synopsis...")
	oneD, err := pass.Demo("nyctaxi", 50000, 3)
	if err != nil {
		log.Fatal(err)
	}
	s1, err := pass.Build(oneD, pass.Options{Partitions: 64, SampleRate: 0.01, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s1.Save(&buf); err != nil {
		log.Fatal(err)
	}
	size := buf.Len()
	restored, err := pass.LoadSynopsis(&buf)
	if err != nil {
		log.Fatal(err)
	}
	restored.SetSchema([]string{"pickup_time"}, "trip_distance", nil)
	if err := sess.Register("trips", restored); err != nil {
		log.Fatal(err)
	}
	r2, err := sess.Exec("SELECT AVG(trip_distance) FROM trips WHERE pickup_time BETWEEN 7 AND 10")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d-byte synopsis restored; AVG over morning rush ≈ %.3f ± %.3f\n",
		size, r2.Scalar.Estimate, r2.Scalar.CIHalf)
}
