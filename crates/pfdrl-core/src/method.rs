//! The five compared EMS architectures (Table 2).

use serde::{Deserialize, Serialize};

/// Comparison methods of §4:
///
/// | Method | Load forecasting          | EMS             |
/// |--------|---------------------------|-----------------|
/// | Local  | local NN                  | local RL        |
/// | Cloud  | cloud NN (pooled data)    | local RL        |
/// | FL     | federated (cloud server)  | local RL        |
/// | FRL    | federated (cloud server)  | federated RL    |
/// | PFDRL  | decentralized federated   | personalized federated RL |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EmsMethod {
    Local,
    Cloud,
    Fl,
    Frl,
    Pfdrl,
}

impl EmsMethod {
    /// All methods in the paper's presentation order.
    pub const ALL: [EmsMethod; 5] = [
        EmsMethod::Local,
        EmsMethod::Cloud,
        EmsMethod::Fl,
        EmsMethod::Frl,
        EmsMethod::Pfdrl,
    ];

    pub fn name(self) -> &'static str {
        match self {
            EmsMethod::Local => "Local",
            EmsMethod::Cloud => "Cloud",
            EmsMethod::Fl => "FL",
            EmsMethod::Frl => "FRL",
            EmsMethod::Pfdrl => "PFDRL",
        }
    }

    // --- Table 2 feature columns -------------------------------------

    /// "Local Area": no traffic leaves the residential network.
    pub fn stays_in_local_area(self) -> bool {
        matches!(self, EmsMethod::Local | EmsMethod::Pfdrl)
    }

    /// "Data Privacy": raw data never leaves the home *and* no central
    /// party holds a global model.
    pub fn preserves_privacy(self) -> bool {
        matches!(self, EmsMethod::Local | EmsMethod::Pfdrl)
    }

    /// "Small Batch Model Training": benefits from collaborative
    /// training when local data is scarce.
    pub fn small_batch_training(self) -> bool {
        !matches!(self, EmsMethod::Local)
    }

    /// "Sharing EMS": reinforcement-learning agents are shared.
    pub fn shares_ems(self) -> bool {
        matches!(self, EmsMethod::Frl | EmsMethod::Pfdrl)
    }

    /// "Personalization": per-residence model components.
    pub fn personalized(self) -> bool {
        matches!(self, EmsMethod::Local | EmsMethod::Pfdrl)
    }
}

impl std::fmt::Display for EmsMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 2, row by row.
    #[test]
    fn table_2_feature_matrix() {
        use EmsMethod::*;
        // (method, local area, privacy, small batch, sharing EMS, personalization)
        let rows = [
            (Local, true, true, false, false, true),
            (Cloud, false, false, true, false, false),
            (Fl, false, false, true, false, false),
            (Frl, false, false, true, true, false),
            (Pfdrl, true, true, true, true, true),
        ];
        for (m, area, privacy, small, sharing, pers) in rows {
            assert_eq!(m.stays_in_local_area(), area, "{m} local area");
            assert_eq!(m.preserves_privacy(), privacy, "{m} privacy");
            assert_eq!(m.small_batch_training(), small, "{m} small batch");
            assert_eq!(m.shares_ems(), sharing, "{m} sharing EMS");
            assert_eq!(m.personalized(), pers, "{m} personalization");
        }
    }

    #[test]
    fn pfdrl_is_the_only_full_featured_method() {
        let full = EmsMethod::ALL.into_iter().filter(|m| {
            m.stays_in_local_area()
                && m.preserves_privacy()
                && m.small_batch_training()
                && m.shares_ems()
                && m.personalized()
        });
        assert_eq!(full.collect::<Vec<_>>(), vec![EmsMethod::Pfdrl]);
    }
}
