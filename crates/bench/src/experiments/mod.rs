//! One module per experiment family; see DESIGN.md's per-experiment index.

mod ablation;
mod encoder_figs;
mod scheduler_figs;
mod table2;

pub use ablation::{
    controller_ablation, controller_ablation_table, window_ablation, window_ablation_table,
    ControllerAblationRow, WindowAblationRow,
};
pub use encoder_figs::{fig2, fig3_fig4, fig8, Fig2Result, Fig3Fig4Result, Fig8Result};
pub use scheduler_figs::{fig5, fig6, fig7};
pub use table2::{overhead_study, overhead_table, table2, table2_rows, OverheadRow, Table2Row};
