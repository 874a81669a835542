//! The memory-market economy (§2.4).
//!
//! The SPCM "imposes a charge on a process for the memory that it uses
//! over a given period of time in an artificial monetary unit we call a
//! *dram*": holding `M` megabytes for `T` seconds costs `M * D * T` drams
//! against an income of `I` drams per second. The refinements described in
//! the paper are all implemented: free use when memory is uncontended, a
//! savings tax that stops demand from hoarding against the fixed-price
//! fixed-supply market, an I/O charge that stops scan-structured programs
//! from dodging the memory charge with re-reads, and forced reclamation of
//! bankrupt processes.

use std::collections::BTreeMap;
use std::fmt;

use epcm_core::tier::MemTier;
use epcm_core::types::{ManagerId, BASE_PAGE_SIZE};
use epcm_sim::clock::{Micros, Timestamp};
use epcm_trace::{EventKind, SharedTracer, TraceEvent, TraceSink};

/// Tunable market parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MarketConfig {
    /// `D`: drams charged per megabyte-second of memory held.
    pub charge_per_mb_sec: f64,
    /// Default `I`: dram income per second for a new account.
    pub income_per_sec: f64,
    /// Balance above which the savings tax applies.
    pub savings_cap: f64,
    /// Fraction of the above-cap balance taxed away per second.
    pub savings_tax_per_sec: f64,
    /// Drams charged per 4 KB of I/O (the anti-rescan charge).
    pub io_charge_per_block: f64,
    /// When no requests are outstanding, memory is free (the paper's
    /// "continue to use memory at no charge when there are no outstanding
    /// memory requests").
    pub free_when_uncontended: bool,
    /// Per-tier price multipliers applied to `charge_per_mb_sec` on
    /// tiered machines, indexed by [`MemTier::index`]. DRAM at full
    /// price, SlowMem at a quarter, CompressedRam at a tenth: demoting a
    /// cold page is how a near-bankrupt manager cuts its bill without
    /// giving pages up.
    pub tier_multipliers: [f64; MemTier::COUNT],
}

impl Default for MarketConfig {
    fn default() -> Self {
        MarketConfig {
            charge_per_mb_sec: 1.0,
            income_per_sec: 32.0,
            savings_cap: 1_000.0,
            savings_tax_per_sec: 0.05,
            io_charge_per_block: 0.01,
            free_when_uncontended: true,
            tier_multipliers: [1.0, 0.25, 0.1],
        }
    }
}

/// Coordinator-side dynamic price discovery (DESIGN.md §15): per-tier
/// rents adjusted once per epoch by a bounded multiplicative update from
/// observed utilization.
///
/// Each call to [`PriceSchedule::observe`] takes the epoch's DRAM
/// utilization in integer *milli-units* (`1000 · demand / capacity`,
/// computed in integer arithmetic by the caller) and moves every tier's
/// rent by the same factor
/// `clamp(1 + gain·(util − target), 1 − step_cap, 1 + step_cap)`,
/// then clamps each rent into `[floor_mult·base, ceil_mult·base]`.
///
/// # Determinism
///
/// The schedule is a pure fold over the utilization sequence: its state
/// after `k` epochs depends only on the base rents, the tuning constants
/// and the `k` observed integers. The update uses only IEEE-exact f64
/// operations (multiply, add, subtract, compare — no `exp`/`ln` and no
/// platform `libm` calls), so the rent trajectory is bit-identical on
/// every platform and for every `--shards`/`--jobs` value, provided the
/// utilization integers are (they are: the shard coordinator computes
/// them from lane-order-merged counters).
#[derive(Debug, Clone, PartialEq)]
pub struct PriceSchedule {
    base: [f64; MemTier::COUNT],
    prices: [f64; MemTier::COUNT],
    gain_per_milli: f64,
    target_util_milli: u64,
    step_cap: f64,
    floor_mult: f64,
    ceil_mult: f64,
    epochs_observed: u64,
}

impl PriceSchedule {
    /// A schedule starting (and anchored) at `base` rents with the
    /// default tuning: target utilization 800‰, gain 0.0008 per milli
    /// of error (full capacity vs an 80% target moves prices 16% per
    /// epoch), per-epoch step capped at ±25%, rents bounded to
    /// `[0.25·base, 8·base]`.
    pub fn new(base: [f64; MemTier::COUNT]) -> Self {
        PriceSchedule {
            base,
            prices: base,
            gain_per_milli: 0.0008,
            target_util_milli: 800,
            step_cap: 0.25,
            floor_mult: 0.25,
            ceil_mult: 8.0,
            epochs_observed: 0,
        }
    }

    /// A frozen schedule: zero gain, so every epoch re-posts `base`
    /// unchanged. Used to run the economy plumbing in a provably
    /// price-neutral mode.
    pub fn flat(base: [f64; MemTier::COUNT]) -> Self {
        PriceSchedule {
            gain_per_milli: 0.0,
            ..PriceSchedule::new(base)
        }
    }

    /// Overrides the gain (fractional price move per milli-unit of
    /// utilization error).
    pub fn with_gain(mut self, gain_per_milli: f64) -> Self {
        self.gain_per_milli = gain_per_milli;
        self
    }

    /// Overrides the utilization target, in milli-units (800 = 80%).
    pub fn with_target_util_milli(mut self, target: u64) -> Self {
        self.target_util_milli = target;
        self
    }

    /// Overrides the per-epoch step cap (0.25 = at most ±25% per epoch).
    pub fn with_step_cap(mut self, cap: f64) -> Self {
        self.step_cap = cap;
        self
    }

    /// Overrides the rent bounds as multiples of the base rents.
    pub fn with_bounds(mut self, floor_mult: f64, ceil_mult: f64) -> Self {
        self.floor_mult = floor_mult;
        self.ceil_mult = ceil_mult;
        self
    }

    /// The current per-tier rents (drams per MB-second).
    pub fn prices(&self) -> [f64; MemTier::COUNT] {
        self.prices
    }

    /// The base (anchor) per-tier rents.
    pub fn base(&self) -> [f64; MemTier::COUNT] {
        self.base
    }

    /// The current DRAM rent.
    pub fn dram_rent(&self) -> f64 {
        self.prices[MemTier::Dram.index()]
    }

    /// Epochs observed so far.
    pub fn epochs_observed(&self) -> u64 {
        self.epochs_observed
    }

    /// Folds one epoch's observed utilization (milli-units) into the
    /// schedule and returns the updated per-tier rents.
    pub fn observe(&mut self, util_milli: u64) -> [f64; MemTier::COUNT] {
        let err = util_milli as f64 - self.target_util_milli as f64;
        let factor =
            (1.0 + self.gain_per_milli * err).clamp(1.0 - self.step_cap, 1.0 + self.step_cap);
        for tier in MemTier::all() {
            let i = tier.index();
            self.prices[i] = (self.prices[i] * factor).clamp(
                self.base[i] * self.floor_mult,
                self.base[i] * self.ceil_mult,
            );
        }
        self.epochs_observed += 1;
        self.prices
    }
}

/// One manager's dram account.
#[derive(Debug, Clone, PartialEq)]
pub struct Account {
    balance: f64,
    income_per_sec: f64,
}

impl Account {
    /// Current balance in drams. A negative balance marks the account
    /// bankrupt; [`MemoryMarket::bill`] reports it and the machine responds
    /// by revoking frames through the SPCM's forced-reclamation protocol
    /// (see [`Machine::revoke`](crate::Machine::revoke)).
    pub fn balance(&self) -> f64 {
        self.balance
    }

    /// Income rate in drams per second.
    pub fn income_per_sec(&self) -> f64 {
        self.income_per_sec
    }
}

/// The memory market ledger.
///
/// # Example
///
/// ```
/// use epcm_core::types::ManagerId;
/// use epcm_managers::market::{dram_frames, MarketConfig, MemoryMarket};
/// use epcm_sim::clock::Timestamp;
///
/// let mut market = MemoryMarket::new(MarketConfig::default());
/// market.open_account(ManagerId(1), None);
/// // One second passes holding 256 frames (1 MB), market contended:
/// let bankrupt = market.bill(
///     Timestamp::from_micros(1_000_000), &[(ManagerId(1), dram_frames(256))], true, None);
/// assert!(bankrupt.is_empty());
/// assert!(market.balance(ManagerId(1)).unwrap() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryMarket {
    config: MarketConfig,
    accounts: BTreeMap<u32, Account>,
    last_billed: Timestamp,
    total_charged: f64,
    total_income: f64,
    total_tax: f64,
    io_charges: u64,
    /// Dynamic per-tier rents installed by a [`PriceSchedule`]. `None`
    /// (the default, and the only state pre-economy code ever sees)
    /// keeps every quote and bill expression literally identical to the
    /// static `charge_per_mb_sec * tier_multipliers` path, so ledgers
    /// of price-schedule-free runs stay float-identical across builds.
    tier_rents: Option<[f64; MemTier::COUNT]>,
}

/// A holding of `frames` DRAM frames and nothing else, as
/// [`MemoryMarket::bill`] takes a flat machine's holdings.
pub fn dram_frames(frames: u64) -> [u64; MemTier::COUNT] {
    let mut by_tier = [0; MemTier::COUNT];
    by_tier[MemTier::Dram.index()] = frames;
    by_tier
}

/// Renders a period charge as the milli-dram integer the trace carries.
///
/// Rents and holdings are non-negative, so a billed charge must be a
/// non-negative finite float; anything else is a pricing bug upstream,
/// caught here by the debug assert. The release-mode clamp keeps the
/// traced `charged` field honest regardless: a NaN or negative input
/// would otherwise saturate to 0 silently in the `as u64` cast, making
/// the billing trace understate what the ledger actually moved.
fn charge_milli(charge: f64) -> u64 {
    debug_assert!(
        charge.is_finite() && charge >= 0.0,
        "market charge must be non-negative finite, got {charge}"
    );
    if charge.is_finite() && charge > 0.0 {
        (charge * 1000.0).round() as u64
    } else {
        0
    }
}

impl MemoryMarket {
    /// Creates an empty ledger.
    pub fn new(config: MarketConfig) -> Self {
        MemoryMarket {
            config,
            accounts: BTreeMap::new(),
            last_billed: Timestamp::ZERO,
            total_charged: 0.0,
            total_income: 0.0,
            total_tax: 0.0,
            io_charges: 0,
            tier_rents: None,
        }
    }

    /// The market parameters.
    pub fn config(&self) -> &MarketConfig {
        &self.config
    }

    /// Installs dynamic per-tier rents (drams per MB-second, indexed by
    /// [`MemTier::index`]), overriding the static
    /// `charge_per_mb_sec * tier_multipliers` pricing for every
    /// subsequent quote and bill. The flat (non-tiered) paths charge the
    /// DRAM rent. This is how a coordinator applies one epoch of a
    /// [`PriceSchedule`] to a ledger.
    pub fn set_tier_rents(&mut self, rents: [f64; MemTier::COUNT]) {
        self.tier_rents = Some(rents);
    }

    /// The dynamic per-tier rents currently installed, if any.
    pub fn tier_rents(&self) -> Option<[f64; MemTier::COUNT]> {
        self.tier_rents
    }

    /// Opens an account with the given income rate (`None` = the config
    /// default). Reopening an existing account adjusts its income only.
    pub fn open_account(&mut self, manager: ManagerId, income_per_sec: Option<f64>) {
        let income = income_per_sec.unwrap_or(self.config.income_per_sec);
        self.accounts
            .entry(manager.0)
            .and_modify(|a| a.income_per_sec = income)
            .or_insert(Account {
                balance: 0.0,
                income_per_sec: income,
            });
    }

    /// The account's balance, if it exists.
    pub fn balance(&self, manager: ManagerId) -> Option<f64> {
        self.accounts.get(&manager.0).map(|a| a.balance)
    }

    /// Shared view of an account.
    pub fn account(&self, manager: ManagerId) -> Option<&Account> {
        self.accounts.get(&manager.0)
    }

    /// The price in drams of holding `frames` frames for `duration`.
    pub fn quote(&self, frames: u64, duration: Micros) -> f64 {
        let mb = frames as f64 * BASE_PAGE_SIZE as f64 / (1024.0 * 1024.0);
        match self.tier_rents {
            Some(rents) => mb * rents[MemTier::Dram.index()] * duration.as_secs_f64(),
            None => mb * self.config.charge_per_mb_sec * duration.as_secs_f64(),
        }
    }

    /// Whether the account can currently pay for `frames` over `duration`.
    pub fn can_afford(&self, manager: ManagerId, frames: u64, duration: Micros) -> bool {
        match self.accounts.get(&manager.0) {
            Some(a) => a.balance >= self.quote(frames, duration),
            None => false,
        }
    }

    /// How long the account must save (at its income rate, holding
    /// nothing) before it can afford `frames` for `duration`. `Some(ZERO)`
    /// if already affordable, `None` if the account does not exist or has
    /// no income. This is the query a batch manager uses to decide when to
    /// swap back in (§2.4).
    pub fn time_until_affordable(
        &self,
        manager: ManagerId,
        frames: u64,
        duration: Micros,
    ) -> Option<Micros> {
        let account = self.accounts.get(&manager.0)?;
        let needed = self.quote(frames, duration) - account.balance;
        if needed <= 0.0 {
            return Some(Micros::ZERO);
        }
        if account.income_per_sec <= 0.0 {
            return None;
        }
        Some(Micros::from_secs_f64(needed / account.income_per_sec))
    }

    /// Charges an account for `blocks` 4 KB transfers of I/O. With the
    /// asynchronous writeback pipeline the manager invokes this when a
    /// writeback *completes* (its disk reservation drains), not when the
    /// page is submitted — I/O is billed at completion.
    pub fn charge_io(&mut self, manager: ManagerId, blocks: u64) {
        if let Some(a) = self.accounts.get_mut(&manager.0) {
            let charge = blocks as f64 * self.config.io_charge_per_block;
            a.balance -= charge;
            self.total_charged += charge;
            self.io_charges += blocks;
        }
    }

    /// Total 4 KB blocks billed through [`MemoryMarket::charge_io`] over
    /// the ledger's lifetime.
    pub fn io_charges(&self) -> u64 {
        self.io_charges
    }

    /// Imposes a penalty charge on an account — the SPCM's fee for frames
    /// it had to seize by force. Counts toward `total_charged`, so
    /// [`MemoryMarket::ledger_residual`] stays conserved.
    pub fn debit(&mut self, manager: ManagerId, amount: f64) {
        if let Some(a) = self.accounts.get_mut(&manager.0) {
            a.balance -= amount;
            self.total_charged += amount;
        }
    }

    /// Grants a one-off credit — the arrival stake a newly admitted
    /// tenant brings to the economy, without which a zero-balance
    /// account could never afford its first frame request. Recorded as
    /// a negative charge, so [`MemoryMarket::ledger_residual`] stays
    /// conserved.
    pub fn credit(&mut self, manager: ManagerId, amount: f64) {
        self.debit(manager, -amount);
    }

    /// Settles and closes out a manager's account at failover or
    /// destruction: the remaining balance (positive or negative) is
    /// forfeited to the system and the income stream stops, so a dead
    /// manager neither accrues drams nor carries debt forward. The
    /// forfeit counts toward `total_charged`, keeping
    /// [`MemoryMarket::ledger_residual`] conserved. Returns the settled
    /// balance, or `None` if the account does not exist.
    pub fn settle_account(&mut self, manager: ManagerId) -> Option<f64> {
        let a = self.accounts.get_mut(&manager.0)?;
        let balance = a.balance;
        a.balance = 0.0;
        a.income_per_sec = 0.0;
        self.total_charged += balance;
        Some(balance)
    }

    /// The price in drams of holding `frames[t]` frames of each tier for
    /// `duration`: the sum over tiers of `M * D * T` scaled by that
    /// tier's multiplier.
    pub fn quote_tiered(&self, frames: &[u64; MemTier::COUNT], duration: Micros) -> f64 {
        let secs = duration.as_secs_f64();
        MemTier::all()
            .into_iter()
            .map(|tier| {
                let mb = frames[tier.index()] as f64 * BASE_PAGE_SIZE as f64 / (1024.0 * 1024.0);
                match self.tier_rents {
                    // The branches keep the pre-schedule expression (and
                    // its f64 association order) literally intact when no
                    // dynamic rents are installed.
                    Some(rents) => mb * rents[tier.index()] * secs,
                    None => {
                        mb * self.config.charge_per_mb_sec
                            * self.config.tier_multipliers[tier.index()]
                            * secs
                    }
                }
            })
            .sum()
    }

    /// Advances the ledger to `now`: pays income, charges each holding —
    /// a per-tier frame vector, DRAM-only on a flat machine — its
    /// [`MemoryMarket::quote_tiered`] price (unless the market is
    /// uncontended and configured free), and applies the savings tax.
    /// Each charge is recorded as one [`EventKind::MarketCharge`] into
    /// `tracer` (charge and resulting balance in millidrams). Returns the
    /// managers whose balance went negative — the SPCM "has the ability
    /// to force the return of memory from processes that have exhausted
    /// their dram supply".
    pub fn bill(
        &mut self,
        now: Timestamp,
        holdings: &[(ManagerId, [u64; MemTier::COUNT])],
        contended: bool,
        tracer: Option<&SharedTracer>,
    ) -> Vec<ManagerId> {
        let dt = now.saturating_duration_since(self.last_billed);
        self.last_billed = now;
        if dt == Micros::ZERO {
            return Vec::new();
        }
        let secs = dt.as_secs_f64();
        for a in self.accounts.values_mut() {
            let income = a.income_per_sec * secs;
            a.balance += income;
            self.total_income += income;
        }
        if contended || !self.config.free_when_uncontended {
            for (mgr, frames) in holdings {
                let charge = self.quote_tiered(frames, dt);
                if let Some(a) = self.accounts.get_mut(&mgr.0) {
                    a.balance -= charge;
                    self.total_charged += charge;
                    if let Some(t) = tracer {
                        t.record(TraceEvent::new(
                            now.as_micros(),
                            EventKind::MarketCharge {
                                manager: mgr.0,
                                charged: charge_milli(charge),
                                balance: (a.balance * 1000.0).round() as i64,
                            },
                        ));
                    }
                }
            }
        }
        for a in self.accounts.values_mut() {
            if a.balance > self.config.savings_cap {
                let tax = (a.balance - self.config.savings_cap)
                    * (self.config.savings_tax_per_sec * secs).min(1.0);
                a.balance -= tax;
                self.total_tax += tax;
            }
        }
        self.accounts
            .iter()
            .filter(|(_, a)| a.balance < 0.0)
            .map(|(&id, _)| ManagerId(id))
            .collect()
    }

    /// Total drams charged for memory and I/O so far.
    pub fn total_charged(&self) -> f64 {
        self.total_charged
    }

    /// Total income paid so far.
    pub fn total_income(&self) -> f64 {
        self.total_income
    }

    /// Total savings tax collected so far.
    pub fn total_tax(&self) -> f64 {
        self.total_tax
    }

    /// Ledger conservation check: sum of balances must equal income minus
    /// charges minus tax (property-tested). Exactly zero in exact
    /// arithmetic; in f64 it accumulates rounding error bounded by
    /// [`MemoryMarket::residual_bound`] — economy runs assert that bound
    /// at the end of every run.
    pub fn ledger_residual(&self) -> f64 {
        let balances: f64 = self.accounts.values().map(|a| a.balance).sum();
        balances - (self.total_income - self.total_charged - self.total_tax)
    }

    /// A conservative bound on `|ledger_residual()|` from f64 rounding.
    ///
    /// Every billing event performs a constant handful of additions on
    /// one balance and on the three running totals; each addition
    /// contributes at most half an ulp of *relative* error, so after `N`
    /// events the residual is bounded by `c · N · ε · S`, where
    /// `S = |income| + |charged| + |tax|` bounds the magnitudes being
    /// summed and `ε = 2⁻⁵²`. The ledger does not count `N`, but even
    /// `N = 2²⁰` events at `c = 4` gives `4 · 2²⁰ · 2⁻⁵² ≈ 9.3e-10`
    /// relative — so `1e-9 · S` holds for any run this repository
    /// performs (tens of thousands of billing events) with ~50×
    /// headroom, while staying ~9 orders of magnitude below a
    /// drams-scale accounting bug.
    pub fn residual_bound(&self) -> f64 {
        1e-9 * (1.0 + self.total_income.abs() + self.total_charged.abs() + self.total_tax.abs())
    }
}

impl fmt::Display for MemoryMarket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "market: {} accounts, {:.1} income, {:.1} charged, {:.1} tax",
            self.accounts.len(),
            self.total_income,
            self.total_charged,
            self.total_tax
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mkt() -> MemoryMarket {
        MemoryMarket::new(MarketConfig::default())
    }

    const SEC: Timestamp = Timestamp::from_micros(1_000_000);

    #[test]
    fn income_accrues() {
        let mut m = mkt();
        m.open_account(ManagerId(1), Some(10.0));
        let bankrupt = m.bill(SEC, &[], true, None);
        assert!(bankrupt.is_empty());
        assert!((m.balance(ManagerId(1)).unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn holding_memory_costs_m_d_t() {
        let mut m = mkt();
        m.open_account(ManagerId(1), Some(0.0));
        // Give a starting balance via income trick: bill once with income.
        m.open_account(ManagerId(1), Some(100.0));
        m.bill(SEC, &[], true, None);
        m.open_account(ManagerId(1), Some(0.0));
        let before = m.balance(ManagerId(1)).unwrap();
        // 2 MB for 1 second at D=1 dram/MB-sec = 2 drams.
        m.bill(
            Timestamp::from_micros(2_000_000),
            &[(ManagerId(1), dram_frames(512))],
            true,
            None,
        );
        let after = m.balance(ManagerId(1)).unwrap();
        assert!(
            (before - after - 2.0).abs() < 1e-9,
            "charged {}",
            before - after
        );
    }

    #[test]
    fn uncontended_memory_is_free() {
        let mut m = mkt();
        m.open_account(ManagerId(1), Some(0.0));
        m.bill(SEC, &[(ManagerId(1), dram_frames(1024))], false, None);
        assert_eq!(m.balance(ManagerId(1)).unwrap(), 0.0);
        // Contended: same holding now costs.
        m.bill(
            Timestamp::from_micros(2_000_000),
            &[(ManagerId(1), dram_frames(1024))],
            true,
            None,
        );
        assert!(m.balance(ManagerId(1)).unwrap() < 0.0);
    }

    #[test]
    fn bankruptcy_is_reported() {
        let mut m = mkt();
        m.open_account(ManagerId(1), Some(0.0));
        let bankrupt = m.bill(SEC, &[(ManagerId(1), dram_frames(2560))], true, None); // 10 MB, no income
        assert_eq!(bankrupt, vec![ManagerId(1)]);
    }

    #[test]
    fn savings_tax_applies_above_cap() {
        let mut m = MemoryMarket::new(MarketConfig {
            savings_cap: 5.0,
            savings_tax_per_sec: 0.5,
            ..MarketConfig::default()
        });
        m.open_account(ManagerId(1), Some(10.0));
        m.bill(SEC, &[], true, None); // balance 10, cap 5 -> tax 0.5*5 = 2.5
        let b = m.balance(ManagerId(1)).unwrap();
        assert!((b - 7.5).abs() < 1e-9, "balance {b}");
        assert!(m.total_tax() > 0.0);
    }

    #[test]
    fn debit_charges_and_conserves() {
        let mut m = mkt();
        m.open_account(ManagerId(1), Some(10.0));
        m.bill(SEC, &[], true, None); // +10 income
        m.debit(ManagerId(1), 4.0);
        assert!((m.balance(ManagerId(1)).unwrap() - 6.0).abs() < 1e-9);
        assert!((m.total_charged() - 4.0).abs() < 1e-9);
        assert!(m.ledger_residual().abs() < 1e-9);
        // Debiting an unknown account is a no-op.
        m.debit(ManagerId(9), 100.0);
        assert!(m.ledger_residual().abs() < 1e-9);
    }

    #[test]
    fn io_charge() {
        let mut m = mkt();
        m.open_account(ManagerId(1), Some(0.0));
        m.charge_io(ManagerId(1), 100);
        assert!((m.balance(ManagerId(1)).unwrap() + 1.0).abs() < 1e-9);
    }

    #[test]
    fn quote_and_affordability() {
        let mut m = mkt();
        m.open_account(ManagerId(1), Some(100.0));
        // 256 frames = 1 MB for 10 s at D=1 => 10 drams.
        let q = m.quote(256, Micros::from_secs(10));
        assert!((q - 10.0).abs() < 1e-9);
        assert!(!m.can_afford(ManagerId(1), 256, Micros::from_secs(10)));
        m.bill(SEC, &[], true, None); // +100 income
        assert!(m.can_afford(ManagerId(1), 256, Micros::from_secs(10)));
    }

    #[test]
    fn time_until_affordable_matches_income() {
        let mut m = mkt();
        m.open_account(ManagerId(1), Some(1.0));
        // Needs 10 drams at 1 dram/s: 10 s of saving.
        let t = m
            .time_until_affordable(ManagerId(1), 256, Micros::from_secs(10))
            .unwrap();
        assert_eq!(t, Micros::from_secs(10));
        assert_eq!(
            m.time_until_affordable(ManagerId(9), 1, Micros::from_secs(1)),
            None
        );
        m.open_account(ManagerId(2), Some(0.0));
        assert_eq!(
            m.time_until_affordable(ManagerId(2), 256, Micros::from_secs(10)),
            None,
            "no income, never affordable"
        );
    }

    #[test]
    fn ledger_conserves() {
        let mut m = mkt();
        for i in 0..4 {
            m.open_account(ManagerId(i), Some(i as f64 * 3.0));
        }
        let mut t = 0u64;
        for step in 1..50u64 {
            t += step * 37_000;
            let holdings = [
                (ManagerId(0), dram_frames(step * 10)),
                (ManagerId(1), dram_frames(500)),
                (ManagerId(3), dram_frames(2000)),
            ];
            m.bill(Timestamp::from_micros(t), &holdings, step % 3 != 0, None);
            m.charge_io(ManagerId(2), step);
        }
        assert!(
            m.ledger_residual().abs() < 1e-6,
            "residual {}",
            m.ledger_residual()
        );
    }

    #[test]
    fn billing_is_idempotent_at_same_instant() {
        let mut m = mkt();
        m.open_account(ManagerId(1), Some(10.0));
        m.bill(SEC, &[], true, None);
        let b = m.balance(ManagerId(1)).unwrap();
        m.bill(SEC, &[(ManagerId(1), dram_frames(99999))], true, None);
        assert_eq!(m.balance(ManagerId(1)).unwrap(), b);
    }

    #[test]
    fn display_shows_totals() {
        let mut m = mkt();
        m.open_account(ManagerId(1), None);
        assert!(m.to_string().contains("1 accounts"));
    }

    #[test]
    fn price_schedule_is_a_pure_fold() {
        let base = [200.0, 50.0, 20.0];
        let utils = [1000u64, 1200, 400, 800, 950, 0, 1500];
        let mut a = PriceSchedule::new(base);
        let mut b = PriceSchedule::new(base);
        for &u in &utils {
            a.observe(u);
        }
        for &u in &utils {
            b.observe(u);
        }
        assert_eq!(a, b, "same inputs must give bit-identical schedules");
        assert_eq!(a.epochs_observed(), utils.len() as u64);
    }

    #[test]
    fn price_schedule_responds_and_clamps() {
        let base = [200.0, 50.0, 20.0];
        let mut s = PriceSchedule::new(base);
        // Sustained overload drives rents up...
        for _ in 0..50 {
            s.observe(1500);
        }
        assert!(s.dram_rent() > base[0]);
        // ...but never past the ceiling multiple.
        for (i, &b) in base.iter().enumerate() {
            assert!(s.prices()[i] <= b * 8.0 + 1e-9);
        }
        // Sustained idleness drives them down to the floor, not to zero.
        for _ in 0..100 {
            s.observe(0);
        }
        for (i, &b) in base.iter().enumerate() {
            assert!(s.prices()[i] >= b * 0.25 - 1e-9);
        }
        // A flat schedule never moves.
        let mut flat = PriceSchedule::flat(base);
        for u in [0u64, 500, 1000, 1500] {
            assert_eq!(flat.observe(u), base);
        }
    }

    #[test]
    fn price_schedule_step_is_capped() {
        let mut s = PriceSchedule::new([100.0, 25.0, 10.0]).with_step_cap(0.25);
        let before = s.dram_rent();
        // An absurd utilization spike still moves at most +25%.
        let after = s.observe(1_000_000)[0];
        assert!(after <= before * 1.25 + 1e-9, "{before} -> {after}");
    }

    #[test]
    fn tier_rents_override_quotes_and_bills() {
        let mut m = mkt();
        m.open_account(ManagerId(1), Some(0.0));
        let flat_quote = m.quote(256, SEC.duration_since(Timestamp::ZERO));
        m.set_tier_rents([2.0, 0.5, 0.2]);
        assert_eq!(m.tier_rents(), Some([2.0, 0.5, 0.2]));
        let dyn_quote = m.quote(256, SEC.duration_since(Timestamp::ZERO));
        assert!(
            (dyn_quote - 2.0 * flat_quote).abs() < 1e-12,
            "doubling the dram rent must double the flat quote"
        );
        // Tiered quotes price each tier at its absolute rent.
        let q = m.quote_tiered(&[256, 0, 0], SEC.duration_since(Timestamp::ZERO));
        assert!((q - dyn_quote).abs() < 1e-12);
        // Flat billing charges the dram rent.
        let bankrupt = m.bill(SEC, &[(ManagerId(1), dram_frames(256))], true, None);
        assert_eq!(bankrupt, vec![ManagerId(1)]);
        assert!((m.balance(ManagerId(1)).unwrap() + dyn_quote).abs() < 1e-9);
    }

    #[test]
    fn residual_stays_within_documented_bound() {
        let mut m = mkt();
        for i in 0..8 {
            m.open_account(ManagerId(i), Some(1.0 + f64::from(i)));
        }
        let mut t = 0u64;
        for step in 1..200u64 {
            t += 13_000 + step * 911;
            m.set_tier_rents([1.0 + (step % 7) as f64, 0.5, 0.1]);
            let holdings = [
                (ManagerId((step % 8) as u32), dram_frames(step * 3)),
                (ManagerId(((step + 3) % 8) as u32), dram_frames(700)),
            ];
            m.bill(Timestamp::from_micros(t), &holdings, step % 4 != 0, None);
            m.charge_io(ManagerId(((step + 5) % 8) as u32), step % 9);
            if step % 50 == 0 {
                m.settle_account(ManagerId(((step / 50) % 8) as u32));
            }
        }
        assert!(
            m.ledger_residual().abs() < m.residual_bound(),
            "residual {} exceeds bound {}",
            m.ledger_residual(),
            m.residual_bound()
        );
    }
}
