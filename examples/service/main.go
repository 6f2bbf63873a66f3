// service is a client for the thermservd simulation server: discover
// the catalogue, run one simulation twice to show the content-addressed
// cache (the second response is served from the LRU, byte-identical to
// the cold run), fire concurrent identical requests to show coalescing,
// and read the execution and cache counters from /metrics.
//
// Start a server, then point the client at it:
//
//	go run ./cmd/thermservd -addr 127.0.0.1:8080 &
//	go run ./examples/service -addr 127.0.0.1:8080
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"

	"thermbal"
)

// runDoc is the part of a /run response document this client reads.
// The request body is a thermbal.Config and the result a
// thermbal.Summary: the library's types are the server's wire schema.
type runDoc struct {
	Key    string           `json:"key"`
	Result thermbal.Summary `json:"result"`
}

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", "127.0.0.1:8080", "thermservd address")
	flag.Parse()
	if err := run("http://"+*addr, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run drives the server at base and reports on w.
func run(base string, w io.Writer) error {
	// Catalogue discovery.
	var catalogue struct {
		Scenarios []struct {
			Name     string `json:"name"`
			Topology string `json:"topology"`
		} `json:"scenarios"`
	}
	raw, err := get(base + "/scenarios")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &catalogue); err != nil {
		return fmt.Errorf("GET /scenarios: %w", err)
	}
	if len(catalogue.Scenarios) == 0 {
		return fmt.Errorf("GET /scenarios: empty catalogue")
	}
	fmt.Fprintf(w, "%d scenarios served, e.g. %s (%s)\n",
		len(catalogue.Scenarios), catalogue.Scenarios[0].Name, catalogue.Scenarios[0].Topology)

	// A cold run, then the same request again: the second response
	// comes from the content-addressed cache, byte-identical.
	req, _ := json.Marshal(thermbal.Config{Policy: "tb", Delta: 3, WarmupS: 2, MeasureS: 5})
	cold, state1, err := post(base+"/run", req)
	if err != nil {
		return err
	}
	cached, state2, err := post(base+"/run", req)
	if err != nil {
		return err
	}
	var doc runDoc
	if err := json.Unmarshal(cold, &doc); err != nil {
		return fmt.Errorf("POST /run: %w", err)
	}
	fmt.Fprintf(w, "run %s: std %.3f °C, %d misses, %.2f migrations/s\n",
		doc.Result.Policy, doc.Result.Temperature.PooledStdDevC,
		doc.Result.QoS.DeadlineMisses, doc.Result.Migration.PerSec)
	fmt.Fprintf(w, "cache: %s then %s, byte-identical=%v, key=%s…\n",
		state1, state2, bytes.Equal(cold, cached), doc.Key[:12])

	// Concurrent identical requests coalesce onto one execution.
	other, _ := json.Marshal(thermbal.Config{Policy: "stop-go", Delta: 4, WarmupS: 2, MeasureS: 5})
	var wg sync.WaitGroup
	states := make([]string, 8)
	errs := make([]error, len(states))
	for i := range states {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, states[i], errs[i] = post(base+"/run", other)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	fmt.Fprintf(w, "8 concurrent identical runs: %s\n", strings.Join(states, " "))

	// The server's counters, from its Prometheus exposition.
	raw, err = get(base + "/metrics")
	if err != nil {
		return err
	}
	var v [4]float64
	for i, series := range []string{
		"thermbal_executions_total", "thermbal_coalesced_total",
		"thermbal_cache_hits_total", "thermbal_cache_misses_total",
	} {
		if v[i], err = metric(string(raw), series); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "metrics: %g executions, %g coalesced, %g hits / %g misses\n", v[0], v[1], v[2], v[3])
	return nil
}

// metric returns one unlabelled series' value from a Prometheus text
// exposition.
func metric(text, series string) (float64, error) {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			return strconv.ParseFloat(rest, 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no series %s", series)
}

func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %d: %s", url, resp.StatusCode, b)
	}
	return b, err
}

func post(url string, body []byte) ([]byte, string, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("POST %s: %d: %s", url, resp.StatusCode, b)
	}
	return b, resp.Header.Get("X-Cache"), err
}
