//! DCQCN \[37\]: the ECN-based rate control shipped in ConnectX NICs.
//!
//! Switches RED-mark data packets (the fabric's `EcnConfig`); the
//! receiving NIC converts marks into Congestion Notification Packets
//! (CNPs) at most once per `cnp_interval` per flow; the sending NIC is
//! the *reaction point* implemented here:
//!
//! * **Rate decrease** on CNP: `α ← (1−g)α + g`, target `Rt ← Rc`,
//!   current `Rc ← Rc(1 − α/2)`.
//! * **Alpha decay**: without CNPs, `α ← (1−g)α` every `alpha_timer`.
//! * **Rate increase**: two clocks — a timer (`increase_timer`) and a
//!   byte counter (`byte_counter`). Each event runs one increase step:
//!   *fast recovery* (first F events: `Rc ← (Rt+Rc)/2`), then *additive*
//!   (`Rt += R_AI`), then *hyper* (`Rt += R_HAI`) once both clocks pass
//!   F, always followed by `Rc ← (Rt+Rc)/2`.
//!
//! Timer clocks are applied lazily: [`Dcqcn::touch`]/[`Dcqcn::rate_mbps`]
//! catch up every elapsed period deterministically, so the controller
//! needs no scheduled events.

use irn_net::Bandwidth;
use irn_sim::Time;

use super::params::dcqcn as p;

/// Per-flow DCQCN reaction-point state.
#[derive(Debug, Clone)]
pub struct Dcqcn {
    line_mbps: f64,
    /// Current rate Rc.
    rc: f64,
    /// Target rate Rt.
    rt: f64,
    /// Congestion estimate α.
    alpha: f64,
    /// Increase events seen on the timer clock since the last decrease.
    timer_events: u32,
    /// Increase events seen on the byte clock since the last decrease.
    byte_events: u32,
    /// Bytes sent since the last byte-counter event.
    bytes_since: u64,
    /// Last time the alpha timer was serviced.
    alpha_clock: Time,
    /// Last time the increase timer was serviced.
    inc_clock: Time,
}

impl Dcqcn {
    /// A flow starting at line rate (§4.1) at time `now`.
    pub fn new(line_rate: Bandwidth, now: Time) -> Dcqcn {
        let line_mbps = line_rate.as_mbps() as f64;
        Dcqcn {
            line_mbps,
            rc: line_mbps,
            rt: line_mbps,
            alpha: 1.0,
            timer_events: 0,
            byte_events: 0,
            bytes_since: 0,
            alpha_clock: now,
            inc_clock: now,
        }
    }

    /// Apply lazily-elapsed alpha decays and timer-driven increases.
    pub fn touch(&mut self, now: Time) {
        // Alpha decay: α ← (1-g)α per elapsed period, in closed form.
        let periods =
            now.saturating_since(self.alpha_clock).as_nanos() / p::ALPHA_TIMER.as_nanos().max(1);
        if periods > 0 {
            let decay = (1.0 - p::G).powi(periods.min(10_000) as i32);
            self.alpha *= decay;
            self.alpha_clock += p::ALPHA_TIMER * periods;
        }
        // Timer-driven increase events, one step per period.
        let inc_periods =
            now.saturating_since(self.inc_clock).as_nanos() / p::INCREASE_TIMER.as_nanos().max(1);
        for _ in 0..inc_periods.min(1_000) {
            self.timer_events += 1;
            self.increase_step();
        }
        if inc_periods > 0 {
            self.inc_clock += p::INCREASE_TIMER * inc_periods;
        }
    }

    /// Account `bytes` transmitted: drives the byte-counter clock.
    pub fn on_send(&mut self, now: Time, bytes: u64) {
        self.touch(now);
        self.bytes_since += bytes;
        while self.bytes_since >= p::BYTE_COUNTER {
            self.bytes_since -= p::BYTE_COUNTER;
            self.byte_events += 1;
            self.increase_step();
        }
    }

    /// A CNP arrived: cut the rate (§ the RP decrease rule).
    pub fn on_cnp(&mut self, now: Time) {
        self.touch(now);
        self.alpha = (1.0 - p::G) * self.alpha + p::G;
        self.rt = self.rc;
        self.rc = (self.rc * (1.0 - self.alpha / 2.0)).max(p::MIN_RATE_MBPS);
        // Reset the increase state machine.
        self.timer_events = 0;
        self.byte_events = 0;
        self.bytes_since = 0;
        self.alpha_clock = now;
        self.inc_clock = now;
    }

    /// One rate-increase event (from either clock).
    fn increase_step(&mut self) {
        let f = p::FAST_RECOVERY_THRESHOLD;
        let t = self.timer_events;
        let b = self.byte_events;
        if t > f && b > f {
            // Hyper increase.
            self.rt = (self.rt + p::RHAI_MBPS).min(self.line_mbps);
        } else if t > f || b > f {
            // Additive increase.
            self.rt = (self.rt + p::RAI_MBPS).min(self.line_mbps);
        }
        // Fast recovery and both increase stages converge Rc toward Rt.
        self.rc = ((self.rt + self.rc) / 2.0).min(self.line_mbps);
    }

    /// Current pacing rate.
    pub fn rate_mbps(&mut self, now: Time) -> f64 {
        self.touch(now);
        self.rc.clamp(p::MIN_RATE_MBPS, self.line_mbps)
    }

    /// Current α (tests / introspection).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

/// Notification-point state: CNP pacing at the receiver (one CNP per
/// [`p::CNP_INTERVAL`] at most, per flow).
#[derive(Debug, Clone, Default)]
pub struct CnpGenerator {
    last: Option<Time>,
}

impl CnpGenerator {
    /// An ECN-marked data packet arrived; should a CNP go out?
    pub fn on_marked_packet(&mut self, now: Time) -> bool {
        let due = match self.last {
            None => true,
            Some(t) => now.saturating_since(t) >= p::CNP_INTERVAL,
        };
        if due {
            self.last = Some(now);
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irn_sim::Duration;

    fn mk(now: Time) -> Dcqcn {
        Dcqcn::new(Bandwidth::from_gbps(40), now)
    }

    #[test]
    fn starts_at_line_rate() {
        let mut d = mk(Time::ZERO);
        assert_eq!(d.rate_mbps(Time::ZERO), 40_000.0);
    }

    #[test]
    fn first_cnp_halves_roughly() {
        // α starts at 1.0: first CNP cuts Rc by α/2 = 50 %... but α is
        // updated first: α = (1-g)·1 + g = 1 ⇒ cut to ~50 %.
        let mut d = mk(Time::ZERO);
        d.on_cnp(Time::from_nanos(1000));
        let r = d.rate_mbps(Time::from_nanos(1000));
        assert!((19_000.0..21_000.0).contains(&r), "rate {r} not ≈ half");
    }

    #[test]
    fn alpha_decays_without_cnps() {
        let mut d = mk(Time::ZERO);
        d.on_cnp(Time::from_nanos(1));
        let a0 = d.alpha();
        // 100 alpha periods later…
        d.touch(Time::ZERO + Duration::micros(55 * 100));
        assert!(d.alpha() < a0 * 0.8, "α must decay: {a0} → {}", d.alpha());
    }

    #[test]
    fn rate_recovers_toward_line_rate() {
        let mut d = mk(Time::ZERO);
        d.on_cnp(Time::from_nanos(1));
        let cut = d.rate_mbps(Time::from_nanos(2));
        // Fast recovery: five timer periods halve the gap to Rt each.
        let later = Time::ZERO + Duration::micros(55 * 6);
        let rec = d.rate_mbps(later);
        assert!(rec > cut, "rate must recover: {cut} → {rec}");
        // Long quiet period: additive + hyper increases restore line rate.
        let much_later = Time::ZERO + Duration::millis(50);
        let full = d.rate_mbps(much_later);
        assert!(
            full > 39_000.0,
            "rate must return to ≈line rate, got {full}"
        );
    }

    #[test]
    fn repeated_cnps_push_toward_floor() {
        let mut d = mk(Time::ZERO);
        let mut t = Time::ZERO;
        for _ in 0..60 {
            t += Duration::micros(50);
            d.on_cnp(t);
        }
        let r = d.rate_mbps(t);
        assert!(r < 1_000.0, "sustained congestion must throttle: {r}");
        assert!(r >= p::MIN_RATE_MBPS);
    }

    #[test]
    fn byte_counter_drives_increase() {
        let mut d = mk(Time::ZERO);
        let t = Time::from_nanos(10);
        d.on_cnp(t);
        let cut = d.rc;
        // 10 MB sent in (virtually) no time: one byte event, Rc moves
        // toward Rt.
        d.on_send(t, 10 * 1024 * 1024);
        assert!(d.rc > cut);
    }

    #[test]
    fn cnp_generator_paces() {
        let mut g = CnpGenerator::default();
        let marked = [
            Time::from_nanos(0),
            Time::from_nanos(1_000),
            Time::ZERO + Duration::micros(49),
            Time::ZERO + Duration::micros(50),
            Time::ZERO + Duration::micros(99),
            Time::ZERO + Duration::micros(100),
        ];
        let cnps: Vec<bool> = marked.iter().map(|&t| g.on_marked_packet(t)).collect();
        assert_eq!(cnps, [true, false, false, true, false, true]);
    }
}
