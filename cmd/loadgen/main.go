// Command loadgen drives Zipf-distributed read traffic against a
// freshend mirror, closing the live-demo loop: mocksource updates
// objects, freshend mirrors them, loadgen plays the user community the
// mirror learns its profile from.
//
// Usage:
//
//	loadgen -mirror http://localhost:8081 -n 500 -theta 1.0 -rate 100
//
// Requests go out one at a time on a fixed schedule of -rate per
// second over one kept-alive connection; a reply slower than the
// interval is made up by sending the next requests back to back.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"time"

	"freshen/internal/stats"
)

// requestTimeout bounds one read, so a stalled mirror shows up as
// counted errors rather than a hung generator.
const requestTimeout = 10 * time.Second

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2) // the FlagSet already printed the diagnostic and usage
	}
	if err := run(cfg); err != nil {
		log.Fatal(err)
	}
}

type config struct {
	mirror      string
	n           int
	theta, rate float64
	duration    time.Duration
	seed        int64
}

// parseFlags builds the generator configuration from a command line;
// split from main so tests can exercise flag handling directly.
func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	mirror := fs.String("mirror", "", "base URL of the freshend mirror; required")
	n := fs.Int("n", 500, "number of objects (must match the mirror)")
	theta := fs.Float64("theta", 1.0, "zipf skew of the simulated community")
	rate := fs.Float64("rate", 50, "requests per second")
	duration := fs.Duration("duration", 30*time.Second, "how long to run")
	seed := fs.Int64("seed", 1, "traffic seed")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	return config{
		mirror:   *mirror,
		n:        *n,
		theta:    *theta,
		rate:     *rate,
		duration: *duration,
		seed:     *seed,
	}, nil
}

// run sends the traffic and logs what it sent: every attempt is a
// request, and an error is any attempt that did not come back 200,
// transport failures included.
func run(cfg config) error {
	if cfg.mirror == "" {
		return fmt.Errorf("-mirror is required")
	}
	if cfg.n <= 0 {
		return fmt.Errorf("n must be positive, got %d", cfg.n)
	}
	if cfg.rate <= 0 || cfg.duration <= 0 {
		return fmt.Errorf("rate and duration must be positive")
	}
	zipf, err := stats.NewZipf(cfg.n, cfg.theta)
	if err != nil {
		return err
	}

	client := &http.Client{Timeout: requestTimeout}
	rng := stats.NewRNG(cfg.seed)
	interval := time.Duration(float64(time.Second) / cfg.rate)
	next := time.Now()
	deadline := next.Add(cfg.duration)
	requests, errors := 0, 0
	for time.Now().Before(deadline) {
		id := zipf.Sample(rng) - 1
		requests++
		resp, err := client.Get(fmt.Sprintf("%s/object/%d", cfg.mirror, id))
		if err != nil {
			errors++
		} else {
			// Drained to EOF, the connection goes back to the pool for
			// the next send; closed unread, the transport drops it.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errors++
			}
		}
		next = next.Add(interval)
		time.Sleep(time.Until(next))
	}
	log.Printf("loadgen: %d requests (%d errors) over %v at zipf θ=%.2f", requests, errors, cfg.duration, cfg.theta)
	return nil
}
