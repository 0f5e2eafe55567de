package screen

// ConfigOption configures a screening Config under construction — the
// single way the repository composes screening sessions. The Config struct
// remains public for wire/struct compatibility, but new code should build
// it via NewConfig rather than hand-writing literals.
type ConfigOption func(*Config)

// NewConfig returns a screening configuration: the cheap baseline (one
// pass, current operating point, stop at first detection) refined by the
// given options.
func NewConfig(opts ...ConfigOption) Config {
	cfg := Config{Passes: 1, StopOnDetect: true}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithPasses repeats the corpus the given number of times per operating
// point; intermittent defects need repetition.
func WithPasses(n int) ConfigOption {
	return func(c *Config) { c.Passes = n }
}

// WithSweep screens over an (f, V, T) grid with the given steps per axis,
// including stress corners — §6's "operating conditions outside normal
// ranges".
func WithSweep(fSteps, vSteps, tSteps int) ConfigOption {
	return func(c *Config) { c.Points = SweepPoints(fSteps, vSteps, tSteps) }
}

// WithMaxOps bounds the session's engine-operation budget (0 = unlimited).
func WithMaxOps(n uint64) ConfigOption {
	return func(c *Config) { c.MaxOps = n }
}

// WithStopOnDetect selects between the cheap policy (true: end at the
// first detection) and full characterization (false: spend the whole
// budget and collect every failure — what forensics and SafeTasks need).
func WithStopOnDetect(stop bool) ConfigOption {
	return func(c *Config) { c.StopOnDetect = stop }
}
